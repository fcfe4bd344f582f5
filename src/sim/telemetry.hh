/**
 * @file
 * Telemetry core: a registry of named metrics every layer publishes
 * into, and a bounded flit-event tracer emitting Chrome trace-event
 * JSON.
 *
 * The paper's event subsystem (Section 2.1) exists so power can be
 * observed *while the simulation runs*; this layer turns those events
 * and the layers' internal counters into inspectable time series
 * instead of end-of-run scalars. Everything here is pull-based: a
 * metric is a name plus a read callback over state the owning module
 * already maintains, so registration costs nothing on the hot path and
 * the all-disabled configuration is bit-identical to a build without
 * telemetry.
 *
 * See docs/OBSERVABILITY.md for the data model, file formats, and
 * measured overhead.
 */

#ifndef ORION_SIM_TELEMETRY_HH
#define ORION_SIM_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/event.hh"

namespace orion::telemetry {

/**
 * How a metric's samples combine across a window.
 *
 * Counter: monotonically nondecreasing between rebaselines; the
 * sampler reports the per-window delta. Gauge: instantaneous level;
 * the sampler reports the value at the window boundary.
 */
enum class MetricKind
{
    Counter,
    Gauge,
};

/** Stable lower-case name ("counter" / "gauge"). */
const char* metricKindName(MetricKind kind);

/**
 * A flat registry of named metrics. Layers register during
 * construction (Network wiring order, so the registration order — and
 * therefore every exported file — is deterministic); the
 * WindowedSampler reads the whole registry at window boundaries.
 */
class MetricsRegistry
{
  public:
    /** Reads the metric's current value. Must be pure observation:
     * a reader runs at sample boundaries only and must not perturb
     * simulation state. */
    using Reader = std::function<double()>;

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /**
     * Register a metric. Names are dot-separated paths
     * ("router.3.sa_stalls", "power.5.buffer.energy_j").
     * @throw std::invalid_argument on a duplicate name.
     */
    void add(MetricKind kind, std::string name, Reader read);

    void
    addCounter(std::string name, Reader read)
    {
        add(MetricKind::Counter, std::move(name), std::move(read));
    }

    void
    addGauge(std::string name, Reader read)
    {
        add(MetricKind::Gauge, std::move(name), std::move(read));
    }

    std::size_t size() const { return metrics_.size(); }
    const std::string& name(std::size_t i) const { return metrics_[i].name; }
    MetricKind kind(std::size_t i) const { return metrics_[i].kind; }

    /** Current value of metric @p i. */
    double read(std::size_t i) const { return metrics_[i].read(); }

    /** Index of the metric named @p name, or npos. */
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t find(const std::string& name) const;

  private:
    struct Metric
    {
        MetricKind kind;
        std::string name;
        Reader read;
    };

    std::vector<Metric> metrics_;
};

/** Telemetry knobs carried by SimConfig (all defaults = disabled). */
struct TelemetryConfig
{
    /** Cycles per sampling window; 0 disables the sampler. */
    sim::Cycle sampleInterval = 0;
    /** Record flit-level events into the ring-buffer tracer. */
    bool traceEnabled = false;
    /** Most-recent event records kept by the tracer. */
    std::size_t traceCapacity = 65536;

    bool
    enabled() const
    {
        return sampleInterval > 0 || traceEnabled;
    }
};

/**
 * Bounded ring-buffer recorder of bus events, exported as Chrome
 * trace-event JSON (chrome://tracing, Perfetto).
 *
 * Subscribes to every event type on construction and keeps the most
 * recent @p capacity records. Stage events (buffer write/read,
 * arbitration, crossbar/link traversal) become 1-cycle duration spans
 * on track (pid = node, tid = component index as emitted); packet
 * injection/ejection, credit transfers, and externally added records
 * (faults, NACKs, retransmissions) become instant events. One
 * simulated cycle maps to one microsecond of trace time.
 */
class FlitTracer
{
  public:
    FlitTracer(sim::EventBus& bus, std::size_t capacity);

    FlitTracer(const FlitTracer&) = delete;
    FlitTracer& operator=(const FlitTracer&) = delete;

    /**
     * Append a named instant record from outside the event bus (fault
     * injections, NACKs, retransmissions). @p name must outlive the
     * tracer (string literals).
     */
    void addInstant(const char* name, int node, int component,
                    sim::Cycle cycle, std::uint64_t packet_id);

    /** Events offered to the tracer over its lifetime. */
    std::uint64_t totalRecorded() const { return total_; }
    /** Events that overwrote an older record (ring overflow). */
    std::uint64_t dropped() const
    {
        return total_ > ring_.size() ? total_ - ring_.size() : 0;
    }
    std::size_t capacity() const { return capacity_; }

    /**
     * Emit the retained records as a complete Chrome trace JSON
     * object. @p label is stored (JSON-escaped) in the trace metadata.
     */
    void writeJson(std::ostream& out, const std::string& label) const;

  private:
    struct Record
    {
        /** Event-type name or addInstant() name. */
        const char* name;
        int node;
        int component;
        std::uint32_t deltaA;
        std::uint64_t packetId;
        sim::Cycle cycle;
        /** True for 1-cycle spans, false for instants. */
        bool span;
    };

    void record(const Record& rec);
    void onEvent(const sim::Event& ev);

    std::size_t capacity_;
    std::vector<Record> ring_;
    /** Next write slot once the ring is full. */
    std::size_t head_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace orion::telemetry

#endif // ORION_SIM_TELEMETRY_HH
