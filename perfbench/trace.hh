/**
 * @file
 * In-memory spans for the traced run: each timed call into a layer's
 * public API is one span with a name, a start, an end and the span
 * that contains it. Spans stay in memory while the workload runs and
 * are written out once, as Chrome trace-event JSON that Perfetto and
 * chrome://tracing load.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall clock, in seconds. */
double nowSeconds();

/** @p s as a quoted, escaped JSON string. */
std::string jsonQuote(const std::string& s);

class SpanRecorder
{
  public:
    using Id = std::size_t;
    static constexpr Id kNoParent = static_cast<Id>(-1);

    Id begin(std::string name, Id parent);
    void end(Id id);

    /** Chrome trace-event JSON: one complete ("X") event per span,
     * with the span and parent ids in its args. */
    void writeChromeTrace(std::ostream& out, const std::string& label) const;

  private:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        Id parent = kNoParent;
    };
    std::vector<Span> spans_;
};

/**
 * Times one call. With a recorder it is also a span; without one it
 * is only a stopwatch, so untraced runs pay two clock reads.
 */
class Scope
{
  public:
    Scope(SpanRecorder* rec, const std::string& name,
          SpanRecorder::Id parent = SpanRecorder::kNoParent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /** Close the span (once) and return its duration in seconds. */
    double close();
    SpanRecorder::Id id() const { return id_; }

  private:
    SpanRecorder* rec_;
    SpanRecorder::Id id_ = SpanRecorder::kNoParent;
    double start_ = 0.0;
    double seconds_ = -1.0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
