/**
 * @file
 * Structured, leveled JSON-lines logger (docs/OBSERVABILITY.md,
 * "Run-level observability").
 *
 * Design constraints, in order:
 *
 *  1. Byte-identity when disabled. Determinism contracts cover the
 *     CLI's stdout/CSV and its documented stderr diagnostics, so the
 *     logger never reformats those bytes: diag() forwards the exact
 *     pre-existing message to stderr and only *mirrors* a structured
 *     event into the JSON sink when one is configured. With no sink
 *     configured, behavior is bitwise what it was before the logger
 *     existed.
 *
 *  2. Zero cost when disabled. sinkEnabled() is one relaxed atomic
 *     load; event() returns immediately on it. No formatting work
 *     happens unless a sink is attached at or below the event level.
 *
 *  3. Thread safety. Sweep workers and the heartbeat thread log
 *     concurrently; each JSON line is serialized under an annotated
 *     core::Mutex and emitted with a single fwrite, so lines never
 *     interleave.
 *
 * The sink is a process-wide singleton configured once at CLI startup
 * (`--log-out FILE --log-level LVL`, or the ORION_LOG / ORION_LOG_LEVEL
 * environment variables; flags win). Library code never configures it.
 */
#ifndef ORION_CORE_LOG_HH
#define ORION_CORE_LOG_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>

#include "core/annotations.hh"
#include "core/sync.hh"

namespace orion::core::log {

enum class Level : int { Debug = 0, Info = 1, Warn = 2, Error = 3,
                         Off = 4 };

/// "debug"/"info"/"warn"/"error"/"off".
const char* levelName(Level level);

/// Parse a level name; returns false (out unchanged) on junk.
bool parseLevel(const std::string& text, Level& out);

/** One key/value in a structured event. `raw` values are emitted
 * verbatim (numbers, booleans); others are JSON-escaped strings. */
struct Field
{
    std::string key;
    std::string value;
    bool raw = false;
};

/// String field (JSON-escaped on emit).
Field str(const char* key, std::string value);
/// Numeric field (shortest round-trip formatting).
Field num(const char* key, double value);
/// Unsigned integer field (full 64-bit precision).
Field u64(const char* key, std::uint64_t value);
/// Boolean field.
Field boolean(const char* key, bool value);

/// printf-style formatting into a std::string (for diag messages).
std::string strf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Process-wide logger singleton. Use the free functions below; the
 * class is exposed for tests (attach/teardown of temporary sinks).
 */
class Logger
{
  public:
    static Logger& instance();

    /**
     * Attach the JSON-lines sink. An empty path detaches it. Throws
     * std::runtime_error if the file cannot be opened (append mode, so
     * several processes may share one log; each line is one write).
     */
    void configure(const std::string& path, Level level)
        ORION_EXCLUDES(mutex_);

    /** Attach from ORION_LOG / ORION_LOG_LEVEL if set (CLI flags call
     * configure() afterwards and win). Unparseable level -> info. */
    void configureFromEnv() ORION_EXCLUDES(mutex_);

    /// True when a sink is attached at or below `level`.
    bool
    sinkEnabled(Level level) const
    {
        return level_.load(std::memory_order_relaxed) <=
               static_cast<int>(level);
    }

    /// Emit one structured JSON line to the sink (no-op if disabled).
    void event(Level level, const char* name,
               std::initializer_list<Field> fields)
        ORION_EXCLUDES(mutex_);

    /**
     * CLI diagnostic: write `message` to stderr byte-for-byte (always,
     * preserving the pre-logger stderr contract) and mirror it as a
     * structured event (name, fields, plus the message under "msg")
     * into the sink when enabled.
     */
    void diag(Level level, const char* name, const std::string& message,
              std::initializer_list<Field> fields = {})
        ORION_EXCLUDES(mutex_);

    /// Detach the sink (tests).
    void reset() ORION_EXCLUDES(mutex_);

  private:
    Logger() = default;

    void writeLine(Level level, const char* name,
                   std::initializer_list<Field> fields,
                   const std::string* message) ORION_EXCLUDES(mutex_);

    mutable core::Mutex mutex_;
    std::FILE* sink_ ORION_GUARDED_BY(mutex_) = nullptr;
    // Lock-free fast path for sinkEnabled(); writers hold mutex_.
    std::atomic<int> level_{
        static_cast<int>(Level::Off)}; // lint-allow: unguarded -- atomic fast path; writers hold mutex_
};

/// JSON-escape `s` (quotes, backslashes, control characters).
std::string jsonEscape(const std::string& s);

/** Write bytes to stderr unmodified and flush (progress-line
 * rendering). Every stderr write in the library funnels through
 * core/log.cc so the naked-stderr lint rule stays meaningful. */
void rawStderr(const std::string& bytes);

inline void
configure(const std::string& path, Level level)
{
    Logger::instance().configure(path, level);
}

inline void
configureFromEnv()
{
    Logger::instance().configureFromEnv();
}

inline bool
enabled(Level level)
{
    return Logger::instance().sinkEnabled(level);
}

inline void
event(Level level, const char* name, std::initializer_list<Field> fields)
{
    Logger::instance().event(level, name, fields);
}

inline void
diag(Level level, const char* name, const std::string& message,
     std::initializer_list<Field> fields = {})
{
    Logger::instance().diag(level, name, message, fields);
}

} // namespace orion::core::log

#endif // ORION_CORE_LOG_HH
