/**
 * @file
 * Injection-rate sweeps and saturation detection.
 *
 * The paper's latency/power figures are curves over packet injection
 * rate; its saturation definition (Section 4.1): "the point at which
 * average packet latency increases to more than twice zero-load
 * latency".
 */

#ifndef ORION_CORE_SWEEP_HH
#define ORION_CORE_SWEEP_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/cancel.hh"
#include "core/checkpoint.hh"
#include "core/config.hh"
#include "core/simulation.hh"

namespace orion::core {
class ProgressTracker;
} // namespace orion::core

namespace orion {

/**
 * Wall/CPU/memory cost of executing one sweep cell, measured on the
 * worker that ran it (observability only — never journaled, excluded
 * from determinism comparisons; the values depend on machine load).
 * `valid` is false for cached (resumed) cells and cells that never
 * ran.
 */
struct PointResources
{
    bool valid = false;
    /** Wall-clock seconds spent on the cell (all attempts). */
    double wallSeconds = 0.0;
    /** CPU seconds consumed — thread CPU time for in-process cells,
     * child user+system time (wait4 rusage) for isolated cells. */
    double cpuSeconds = 0.0;
    /** Peak resident set in kilobytes, when known (isolated cells
     * only — ru_maxrss of the worker process); 0 otherwise. */
    long maxRssKb = 0;
};

/**
 * A failed sweep point, isolated from its siblings: the sweep finishes
 * every other point and records what went wrong here instead of
 * aborting the fan-out.
 */
struct PointFailure
{
    /** Why the point failed (CheckFailure for invariant violations
     * and construction errors). */
    StopReason reason = StopReason::CheckFailure;
    /** The diagnostic of the check that fired (or the exception). */
    std::string message;
    /** JSON forensic snapshot taken at failure (see
     * core/forensics.hh); empty if the simulation never got built. */
    std::string forensicsJson;
};

/**
 * Bounded retry of a failed sweep cell. Attempt k reruns the cell on
 * the rederived seed stream sim::deriveSeed(seed, rate index,
 * seed index + k * 2^32) — disjoint from every sibling cell — so
 * transient, seed-dependent failures recover while results stay
 * deterministic. Only check failures and worker crashes are retried.
 * Shared by the in-process and isolated backends; the default (2
 * attempts, no backoff) reproduces the historical "one
 * rederived-seed retry" exactly.
 */
struct RetryPolicy
{
    /** Total attempts per cell (>= 1; 1 disables retry). */
    unsigned maxAttempts = 2;
    /** Milliseconds slept before each retry attempt, easing transient
     * resource pressure (ENOMEM, thrashing). 0 = none. */
    unsigned backoffMs = 0;
};

/** One cell of an injection-rate sweep: one run at one (rate, seed). */
struct SweepPoint
{
    double injectionRate = 0.0;
    Report report;
    /** Set when the point failed even after its bounded retries. */
    std::optional<PointFailure> failure;
    /** Simulation attempts spent on this point (2 = retried once on a
     * rederived seed after a transient check failure). */
    unsigned attempts = 1;
    /** False when the point never executed: the sweep was cancelled
     * before the cursor dispensed it. Only possible with
     * SweepOptions::cancel set. */
    bool ran = false;
    /** True when the result came from a resumed checkpoint journal
     * instead of a fresh run (bit-identical either way). */
    bool fromCheckpoint = false;
    /** The point's sampled metric time series (long-format CSV),
     * captured only when SimConfig::telemetry enables the sampler. */
    std::string metricsCsv;
    /** The point's Chrome trace JSON, captured only when
     * SimConfig::telemetry enables tracing. */
    std::string traceJson;
    /** What the point cost to run (see PointResources). */
    PointResources resources;
};

/** Execution options for sweep drivers. */
struct SweepOptions
{
    /**
     * Worker threads to fan sweep points across: 1 runs everything
     * inline on the calling thread (the historical behavior), 0 asks
     * for std::thread::hardware_concurrency(). Results are
     * bit-identical for every value — each (rate, seed) point owns a
     * private Network/Simulator/RNG stream seeded by
     * sim::deriveSeed(sim.seed, rate index, seed index), and points
     * are merged in index order regardless of completion order.
     */
    unsigned jobs = 1;
    /** Per-cell retry of transient failures (see RetryPolicy). */
    RetryPolicy retry;
    /**
     * Per-cell wall-clock deadline in seconds (<= 0 disables). An
     * overrunning cell is cancelled cooperatively and recorded as a
     * PointFailure with StopReason::Deadline plus forensics; deadline
     * overruns are never retried (they are not transient) and never
     * journaled (they are not deterministic).
     */
    double pointTimeoutSeconds = 0.0;
    /**
     * Parent cancellation token (typically &core::interruptToken();
     * not owned, may be null). Once it fires, no further cells are
     * dispensed and in-flight cells stop cooperatively with
     * StopReason::Interrupted; cells never dispensed come back with
     * ran == false.
     */
    core::CancelToken* cancel = nullptr;
    /**
     * Checkpoint journal to append finished cells to (not owned, may
     * be null). Only deterministic outcomes are written — see
     * core/checkpoint.hh. Telemetry exports (metricsCsv/traceJson)
     * are NOT journaled; drivers reject checkpointing combined with
     * telemetry capture.
     */
    core::CheckpointJournal* journal = nullptr;
    /**
     * Cells already completed by an earlier (interrupted) run, from
     * loadCheckpoint (not owned, may be null). Matching cells are
     * merged from the cache instead of rerun — bit-identically,
     * thanks to the journal's exact hexfloat round-trip. Duplicate
     * coordinates: last entry wins.
     */
    const std::vector<core::CheckpointEntry>* resume = nullptr;
    /**
     * Live progress tracker (not owned, may be null). When set, each
     * worker reports cell begin/attempt/end (and resume-cache hits)
     * so the heartbeat file / progress line / stall detector see the
     * sweep as it runs. Observability only: installing a tracker
     * never changes results — the per-cell hooks are atomic stores
     * outside the simulated machine. See core/progress.hh.
     */
    core::ProgressTracker* progress = nullptr;
    /**
     * Crash isolation (orion_sweep --isolate). When non-empty, every
     * cell attempt runs in a fork/exec'd worker instead of
     * in-process: this command — an orion_sim binary followed by the
     * options that describe the same network, traffic and sim
     * configuration as the sweep call — plus `--rate R --seed S
     * --report-out FILE` for the attempt. Retry, journal and resume
     * are the in-process ones, and results are bit-identical to
     * in-process cells. A worker that crashes, is OOM-killed or
     * writes no report becomes a StopReason::WorkerCrash failure;
     * one that outlives twice the point timeout (plus 5 s) is killed
     * as a Deadline. Telemetry is not captured.
     */
    std::vector<std::string> workerCommand;
    /** Isolated workers' RLIMIT_AS cap in bytes (0 = none). */
    std::uint64_t workerMemBytes = 0;
    /** Isolated workers' RLIMIT_CPU cap in seconds (0 = none). */
    std::uint64_t workerCpuSeconds = 0;

    /** Options with only a worker count set — the common call-site
     * shape (avoids missing-field-initializer noise now that the
     * struct has grown survivability knobs). */
    static SweepOptions
    withJobs(unsigned jobs)
    {
        SweepOptions o;
        o.jobs = jobs;
        return o;
    }
};

/** One rate of a sweep aggregated over its seeds (Sweep::average). */
struct AveragedPoint
{
    double injectionRate = 0.0;
    unsigned seeds = 0;
    /** True only if every seed's run completed. */
    bool allCompleted = false;
    double meanLatency = 0.0;
    double minLatency = 0.0;
    double maxLatency = 0.0;
    double meanPowerWatts = 0.0;
    double meanThroughput = 0.0;
    /** Seeds whose runs failed (excluded from the aggregates). */
    unsigned failedSeeds = 0;
    /** Seeds that actually executed (or were merged from a resumed
     * checkpoint); less than `seeds` only after a cancellation. */
    unsigned ranSeeds = 0;
    /** Diagnostic of the first failed seed, if any. */
    std::string firstFailure;
    /** Simulation attempts spent over all seeds (seeds that never ran
     * count 0); more than ranSeeds marks a retried seed. */
    unsigned attempts = 0;
    /**
     * Aggregate execution cost over the seeds that ran fresh this
     * invocation: wall/CPU seconds are summed, maxRssKb is the peak
     * across seeds. `resources.valid` is true if at least one seed
     * contributed (resumed seeds never do — their cost was paid by an
     * earlier run).
     */
    PointResources resources;
};

/**
 * The report an isolated worker hands back (`orion_sim --report-out`):
 * @p report plus the sweep's failure triage, as one checkpoint-journal
 * entry line with its newline. The sweep merges it bit-identically
 * with an in-process run of the same cell.
 */
std::string workerReportLine(Simulation& run, const Report& report);

/** Injection-rate sweep driver. */
class Sweep
{
  public:
    /**
     * Run @p network under @p traffic at each rate in @p rates, @p seeds
     * times per rate, returning one cell per (rate, seed): cell
     * i * seeds + k is rate i on RNG stream sim::deriveSeed(sim.seed,
     * i, k). With the default single seed that is one report per
     * rate. The traffic config's injectionRate field is overridden per
     * cell. With opts.jobs != 1, the whole (rate, seed) grid fans out
     * across workers with results bit-identical to the serial order.
     *
     * Failure isolation: a cell whose run hits a check failure (or
     * whose construction throws) never aborts the sweep. The cell is
     * retried on rederived seed streams per opts.retry (transient
     * failures recover; the default is the historical single retry);
     * if every attempt fails, SweepPoint::failure records the stop
     * reason, diagnostic, and a JSON forensic snapshot, and every
     * other cell still reports normally. Deadlines, cancellation,
     * checkpoint/resume and crash isolation ride in via opts — see
     * SweepOptions.
     */
    static std::vector<SweepPoint> overRates(
        const NetworkConfig& network, const TrafficConfig& traffic,
        const SimConfig& sim, const std::vector<double>& rates,
        const SweepOptions& opts = {}, unsigned seeds = 1);

    /**
     * The mean and spread of each rate over its @p seeds cells of an
     * overRates grid: the error-bar data behind a publication-quality
     * curve. Seeds are accumulated in seed order on the calling
     * thread, so every mean has the same bits at any job count.
     * Failed seeds are excluded from the aggregates.
     */
    static std::vector<AveragedPoint> average(
        const std::vector<SweepPoint>& cells, unsigned seeds);

    /**
     * Zero-load latency: mean latency at a near-zero injection rate
     * (0.002 packets/cycle/node with a reduced sample).
     */
    static double zeroLoadLatency(const NetworkConfig& network,
                                  const TrafficConfig& traffic,
                                  const SimConfig& sim);

    /**
     * The paper's saturation point: the lowest swept rate whose mean
     * latency exceeds twice @p zero_load_latency (or whose run did not
     * complete). Returns a negative value if no swept rate saturates.
     */
    static double saturationRate(const std::vector<SweepPoint>& points,
                                 double zero_load_latency);

    /** Evenly spaced rates in [first, last] with @p count points. */
    static std::vector<double> linspace(double first, double last,
                                        unsigned count);
};

} // namespace orion

#endif // ORION_CORE_SWEEP_HH
