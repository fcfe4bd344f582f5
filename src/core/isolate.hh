/**
 * @file
 * Process-isolated execution of one sweep cell (docs/ROBUSTNESS.md,
 * "Survivable runs").
 *
 * The sweep engine's isolated backend (SweepOptions::workerCommand,
 * `orion_sweep --isolate`) runs each cell attempt in a fork/exec'd
 * orion_sim subprocess instead of in-process, so a cell that
 * SIGSEGVs, OOMs, or wedges past its deadline is recorded as a
 * structured per-cell failure (exit status or signal captured, stderr
 * tail attached) while every other cell completes normally. The child
 * writes its report with `orion_sim --report-out FILE` using the
 * same exact hexfloat serialization the checkpoint journal uses, so
 * isolated results merge byte-identically with in-process ones.
 *
 * Resource fencing: the child gets RLIMIT_AS / RLIMIT_CPU caps (when
 * configured) and a kill-on-timeout watchdog in the parent — a
 * deadline overrun is first given the cooperative grace of SIGTERM,
 * then SIGKILL.
 */

#ifndef ORION_CORE_ISOLATE_HH
#define ORION_CORE_ISOLATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/cancel.hh"

namespace orion::core {

/** How to run one isolated worker. */
struct IsolateOptions
{
    /** argv for the child, argv[0] first (the orion_sim binary). */
    std::vector<std::string> argv;
    /** Wall-clock deadline in seconds; <= 0 means none. On expiry
     * the child gets SIGTERM, then SIGKILL one second later. */
    double timeoutSeconds = 0.0;
    /** Address-space cap in bytes (RLIMIT_AS); 0 means unlimited. */
    std::uint64_t maxAddressSpaceBytes = 0;
    /** CPU-seconds cap (RLIMIT_CPU); 0 means unlimited. */
    std::uint64_t maxCpuSeconds = 0;
    /** Bytes of the child's stderr retained (the *tail* — the end of
     * the stream is where crash diagnostics land). */
    std::size_t stderrTailBytes = 4096;
    /** Route the child's stdout to /dev/null (the parent reads the
     * report file, not the child's report rendering). */
    bool quietStdout = false;
    /**
     * Parent cancellation token (not owned, may be null). When it
     * fires mid-run the child is forwarded SIGTERM (its own interrupt
     * handlers turn that into a cooperative stop) and the result is
     * marked interrupted; the SIGKILL grace period still applies.
     */
    const CancelToken* cancel = nullptr;
};

/** What the isolated worker did. */
struct IsolateResult
{
    /** The child exited normally (any exit code). */
    bool exited = false;
    /** Child's exit code when exited. */
    int exitCode = 0;
    /** Signal that killed the child, or 0 (SIGSEGV for a crash,
     * SIGKILL after a timeout, SIGXCPU for the CPU cap...). */
    int termSignal = 0;
    /** The parent's watchdog fired (deadline overrun). */
    bool timedOut = false;
    /** The parent's cancel token fired and SIGTERM was forwarded. */
    bool interrupted = false;
    /** Tail of the child's stderr (crash diagnostics). */
    std::string stderrTail;
    /** Child resource usage from wait4 (valid when haveRusage).
     * Observability only — these feed per-point resource columns and
     * the run manifest, never results. */
    bool haveRusage = false;
    /** Child user+system CPU seconds. */
    double cpuSeconds = 0.0;
    /** Child peak resident set, kilobytes (ru_maxrss on Linux). */
    long maxRssKb = 0;

    /** Human-readable exit summary ("exit 0", "signal 11",
     * "timeout (killed)"). */
    std::string describe() const;
};

/**
 * fork/exec @p opts.argv and wait, enforcing the deadline and
 * resource caps. Returns how the child ended; throws
 * std::runtime_error only for parent-side plumbing failures (fork or
 * pipe creation), never for child misbehavior.
 */
IsolateResult runIsolated(const IsolateOptions& opts);

} // namespace orion::core

#endif // ORION_CORE_ISOLATE_HH
