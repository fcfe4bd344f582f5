/**
 * @file
 * Host time: the one place in src/ that reads a clock.
 *
 * Every report is a pure function of (config, seed): §4.1's average
 * power is energy x f_clk / cycles, so results depend on simulated
 * cycles only. Host time may feed profiling (base/profile), deadlines
 * and watchdogs (base/cancel, core/isolate), per-cell accounting,
 * logs and run manifests, never simulation state.
 * tools/orion_lint.py's nondeterminism rule keeps it that way: a
 * clock read anywhere else in src/ is a finding, and so is a call to
 * these helpers from the simulation layers (tech, power, sim, router,
 * net), which reach host time only through base/profile and
 * base/cancel.
 */
#ifndef ORION_BASE_CLOCK_HH
#define ORION_BASE_CLOCK_HH

struct timeval;

namespace orion::core {

/** Seconds on a monotonic clock with an arbitrary epoch; subtract two
 * readings for an interval. */
double monotonicSeconds() noexcept;

/** Seconds since the Unix epoch, for timestamps. */
double unixSeconds() noexcept;

/** CPU seconds the calling thread has consumed (0 if unavailable). */
double threadCpuSeconds() noexcept;

/** A getrusage/wait4 CPU time in seconds. */
double timevalSeconds(const timeval& tv) noexcept;

} // namespace orion::core

#endif // ORION_BASE_CLOCK_HH
