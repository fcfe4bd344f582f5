/**
 * @file
 * Leveled runtime invariant checks (see docs/QUALITY.md).
 *
 * Orion's power numbers are only as trustworthy as its bookkeeping: a
 * single lost flit or miscounted credit silently corrupts every figure
 * the repo reproduces. This header provides the machine-checked
 * invariant layer:
 *
 *  - ORION_CHECK(cond, msg)  — cheap checks on hot paths (buffer
 *    over/underflow, credit discipline). Active at CheckLevel::Cheap
 *    and above.
 *  - ORION_AUDIT(cond, msg)  — expensive cross-module invariants
 *    (network-wide conservation walks). Active at CheckLevel::Paranoid
 *    only.
 *
 * Both levels are selected twice: at compile time via the CMake cache
 * variable ORION_CHECK_LEVEL (which defines ORION_CHECK_MAX_LEVEL and
 * compiles higher-level checks out entirely), and at run time via the
 * ORION_CHECK environment variable ("off"/"0", "cheap"/"1",
 * "paranoid"/"2") or setCheckLevel(). The runtime level can never
 * exceed the compiled-in maximum.
 *
 * A failed check throws CheckFailure with a diagnostic naming the
 * offending condition, source location, and the module/port context
 * supplied by the streamed message. The message operand is only
 * evaluated on failure, so diagnostics may be arbitrarily detailed
 * without hot-path cost.
 */

#ifndef ORION_BASE_CHECK_HH
#define ORION_BASE_CHECK_HH

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>

namespace orion::core {

/** How much self-checking the simulator performs. */
enum class CheckLevel : int
{
    /** No runtime checks beyond plain asserts. */
    Off = 0,
    /** O(1) checks on hot paths; periodic network audits. */
    Cheap = 1,
    /** Everything: expensive cross-module walks, frequent audits. */
    Paranoid = 2,
};

/** Thrown when an ORION_CHECK / ORION_AUDIT condition fails. */
class CheckFailure : public std::logic_error
{
  public:
    explicit CheckFailure(const std::string& what)
        : std::logic_error(what)
    {
    }
};

/**
 * The current runtime check level. Initialized once from the
 * ORION_CHECK environment variable (default Cheap), clamped to the
 * compiled-in maximum. Thread-safe: parallel sweep workers read it
 * concurrently.
 */
CheckLevel checkLevel();

/** Override the runtime level (tests); clamped to the compiled max. */
void setCheckLevel(CheckLevel level);

/** The level compiled in via ORION_CHECK_LEVEL (macros above it are
 * no-ops regardless of the runtime setting). */
CheckLevel compiledCheckLevel();

/** Throw CheckFailure with a formatted diagnostic. */
[[noreturn]] void checkFailed(const char* kind, const char* cond,
                              const char* file, int line,
                              const std::string& message);

namespace detail {

/**
 * Relaxed-atomic storage behind checkLevel(). Kept inline in the
 * header so ORION_CHECK's level test on hot paths is a single relaxed
 * load instead of an out-of-line call; -1 means "not yet initialized
 * from the ORION_CHECK environment variable".
 */
inline std::atomic<int> g_checkLevel{-1};

/** Slow path: initialize g_checkLevel from the environment. */
int initCheckLevel();

inline bool
levelActive(CheckLevel needed)
{
    int level = g_checkLevel.load(std::memory_order_relaxed);
    if (level < 0)
        level = initCheckLevel();
    return level >= static_cast<int>(needed);
}

} // namespace detail

} // namespace orion::core

/** Compiled-in ceiling: 0 = off, 1 = cheap, 2 = paranoid. */
#ifndef ORION_CHECK_MAX_LEVEL
#define ORION_CHECK_MAX_LEVEL 2
#endif

#define ORION_CHECK_IMPL_(kind, level, cond, msg)                         \
    do {                                                                  \
        if (::orion::core::detail::levelActive(level) && !(cond)) {       \
            std::ostringstream orion_check_os_;                           \
            orion_check_os_ << msg;                                       \
            ::orion::core::checkFailed(kind, #cond, __FILE__, __LINE__,   \
                                       orion_check_os_.str());            \
        }                                                                 \
    } while (0)

#if ORION_CHECK_MAX_LEVEL >= 1
/** Cheap invariant check; @p msg is a stream expression. */
#define ORION_CHECK(cond, msg)                                            \
    ORION_CHECK_IMPL_("check", ::orion::core::CheckLevel::Cheap, cond,    \
                      msg)
#else
#define ORION_CHECK(cond, msg)                                            \
    do {                                                                  \
    } while (0)
#endif

#if ORION_CHECK_MAX_LEVEL >= 2
/** Expensive (paranoid-only) invariant check. */
#define ORION_AUDIT(cond, msg)                                            \
    ORION_CHECK_IMPL_("audit", ::orion::core::CheckLevel::Paranoid,       \
                      cond, msg)
#else
#define ORION_AUDIT(cond, msg)                                            \
    do {                                                                  \
    } while (0)
#endif

#endif // ORION_BASE_CHECK_HH
