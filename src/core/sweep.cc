#include "core/sweep.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <stdlib.h>

#include "core/executor.hh"
#include "core/forensics.hh"
#include "core/isolate.hh"
#include "core/log.hh"
#include "core/progress.hh"
#include "sim/rng.hh"

namespace orion {

namespace {

namespace log = core::log;

/**
 * Retry attempts rederive the seed in a disjoint seed-index band:
 * attempt k runs on sim::deriveSeed(seed, rate index, seed index +
 * k * kRetrySeedOffset), so a retried cell cannot collide with any
 * sibling cell's stream.
 */
constexpr std::uint64_t kRetrySeedOffset = 1ULL << 32;

/** Monotonic seconds for per-cell resource accounting (observability
 * only; never journaled or compared). */
double
monotonicSeconds()
{
    const auto t = std::chrono::steady_clock::now(); // lint-allow: nondeterminism -- accounting only
    return std::chrono::duration<double>(t.time_since_epoch()).count();
}

/** CPU seconds consumed by the calling thread so far. */
double
threadCpuSeconds()
{
    timespec ts{};
    if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        return 0.0;
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** What one attempt (or one whole cell) produced. */
struct CellResult
{
    SweepPoint point;
    /** How the isolated worker of the last attempt ended ("exit 0",
     * "signal 11"); empty in-process. The journal records it. */
    std::string workerExit;
};

/**
 * The sweep's failure triage of a finished run, shared by the
 * in-process backend and the isolated worker's report: check
 * failures, deadlines and interrupts are failures, anything else is a
 * result.
 */
std::optional<PointFailure>
triage(Simulation& run, const Report& r)
{
    switch (r.stopReason) {
    case StopReason::CheckFailure:
        return PointFailure{
            StopReason::CheckFailure, r.checkFailureDiagnostic,
            forensicSnapshot(run, r.checkFailureDiagnostic)};
    case StopReason::Deadline:
        return PointFailure{StopReason::Deadline,
                            "point exceeded its deadline after " +
                                std::to_string(r.totalCycles) +
                                " cycles",
                            forensicSnapshot(run,
                                             "point deadline expired")};
    case StopReason::Interrupted:
        return PointFailure{StopReason::Interrupted,
                            "interrupted mid-run (SIGINT/SIGTERM)",
                            std::string{}};
    default:
        return std::nullopt;
    }
}

/** Only CheckFailure and WorkerCrash may be transient. A deadline
 * overrun will overrun again, and nobody waits for an interrupted
 * cell. */
bool
retryable(const std::optional<PointFailure>& failure)
{
    return failure && (failure->reason == StopReason::CheckFailure ||
                       failure->reason == StopReason::WorkerCrash);
}

/** A cell outcome worth journaling: deterministic given the seed.
 * Deadline/Interrupted stops depend on wall-clock/machine load and
 * must rerun on resume instead. */
bool
journalable(const SweepPoint& p)
{
    const StopReason sr =
        p.failure ? p.failure->reason : p.report.stopReason;
    return sr != StopReason::Deadline &&
           sr != StopReason::Interrupted;
}

core::CheckpointEntry
makeEntry(std::size_t rate_index, unsigned seed_index,
          const CellResult& cell)
{
    core::CheckpointEntry e;
    e.rateIndex = rate_index;
    e.seedIndex = seed_index;
    e.attempts = cell.point.attempts;
    e.report = cell.point.report;
    if (cell.point.failure) {
        e.failed = true;
        e.failureReason = cell.point.failure->reason;
        e.failureMessage = cell.point.failure->message;
        e.failureForensics = cell.point.failure->forensicsJson;
    }
    e.workerExit = cell.workerExit;
    return e;
}

SweepPoint
pointFromEntry(const core::CheckpointEntry& e)
{
    SweepPoint p;
    p.report = e.report;
    p.attempts = e.attempts;
    p.ran = true;
    if (e.failed) {
        p.failure = PointFailure{e.failureReason, e.failureMessage,
                                 e.failureForensics};
    }
    return p;
}

/** The entry line a worker wrote with --report-out, or nullopt when
 * the file is missing, empty or corrupt (a crashed worker). */
std::optional<core::CheckpointEntry>
readWorkerEntry(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::string line;
    if (!in || !std::getline(in, line) || line.empty())
        return std::nullopt;
    try {
        return core::parseEntry(line);
    } catch (const core::CheckpointError&) {
        return std::nullopt;
    }
}

/** (rate index, seed index) -> cached entry; duplicates last-wins
 * (repeated resumes re-journal nothing, but stay safe anyway). */
using ResumeIndex =
    std::unordered_map<std::uint64_t, const core::CheckpointEntry*>;

std::uint64_t
cellKey(std::size_t rate_index, unsigned seed_index)
{
    return (static_cast<std::uint64_t>(rate_index) << 32) | seed_index;
}

/** A private directory for isolated workers' report files, removed
 * with everything in it when the sweep returns. */
class WorkerDir
{
  public:
    explicit WorkerDir(bool needed)
    {
        if (!needed)
            return;
        const std::filesystem::path tmp =
            std::filesystem::temp_directory_path();
        std::string tmpl = (tmp / "orion_sweep.XXXXXX").string();
        if (::mkdtemp(tmpl.data()) == nullptr) {
            throw std::runtime_error(
                "sweep: cannot create a directory for worker report "
                "files in '" +
                tmp.string() + "'");
        }
        path_ = tmpl;
    }

    ~WorkerDir()
    {
        std::error_code ec;
        if (!path_.empty())
            std::filesystem::remove_all(path_, ec);
    }

    WorkerDir(const WorkerDir&) = delete;
    WorkerDir& operator=(const WorkerDir&) = delete;

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

/**
 * The one sweep engine: resolves every (rate index, seed index) cell
 * of a sweep, from the resume journal or by running it. A cell runs
 * up to RetryPolicy::maxAttempts attempts, each on its own seed band,
 * either in-process or in a fork/exec'd worker
 * (SweepOptions::workerCommand); failures are captured per cell
 * instead of propagating into parallelFor, where an exception
 * would abort the whole sweep and discard every completed point.
 * run() is called concurrently from parallelFor workers; it only
 * reads the runner's state.
 */
class CellRunner
{
  public:
    CellRunner(const NetworkConfig& network, const TrafficConfig& traffic,
               const SimConfig& sim, const std::vector<double>& rates,
               unsigned num_seeds, const SweepOptions& opts)
        : network_(network), traffic_(traffic), sim_(sim),
          rates_(rates), opts_(opts),
          workerDir_(!opts.workerCommand.empty())
    {
        if (opts.resume == nullptr)
            return;
        for (const core::CheckpointEntry& e : *opts.resume) {
            if (e.rateIndex >= rates.size() || e.seedIndex >= num_seeds)
                continue; // defensive; the fingerprint binds the grid
            resume_[cellKey(e.rateIndex,
                            static_cast<unsigned>(e.seedIndex))] = &e;
        }
    }

    /** Cell (@p i, @p k): merged from the resume journal, or run and
     * then journaled when its outcome is deterministic. */
    SweepPoint
    run(std::size_t i, unsigned k) const
    {
        const auto hit = resume_.find(cellKey(i, k));
        if (hit != resume_.end()) {
            SweepPoint p = pointFromEntry(*hit->second);
            p.injectionRate = rates_[i];
            p.fromCheckpoint = true;
            if (opts_.progress != nullptr)
                opts_.progress->noteCached();
            return p;
        }

        core::ProgressScope scope(opts_.progress, i, k);
        const double wall0 = monotonicSeconds();
        const double cpu0 = threadCpuSeconds();
        CellResult cell = attempts(i, k, scope);
        PointResources& rs = cell.point.resources;
        if (opts_.workerCommand.empty()) {
            rs.valid = true;
            rs.cpuSeconds = threadCpuSeconds() - cpu0;
        }
        if (rs.valid)
            rs.wallSeconds = monotonicSeconds() - wall0;
        cell.point.injectionRate = rates_[i];
        if (opts_.journal != nullptr && journalable(cell.point))
            opts_.journal->append(makeEntry(i, k, cell));
        // End after the journal append so a heartbeat's done count
        // never exceeds the journal's entry count.
        scope.end(cell.point.failure.has_value());
        return std::move(cell.point);
    }

  private:
    /** The retry loop: one attempt per seed band until one succeeds
     * or fails for good. */
    CellResult
    attempts(std::size_t i, unsigned k,
             core::ProgressScope& scope) const
    {
        CellResult res;
        PointResources used;
        const unsigned max_attempts =
            std::max(1u, opts_.retry.maxAttempts);
        for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
            // An interrupt between attempts ends the cell immediately:
            // retrying a point nobody will wait for helps no one.
            if (opts_.cancel != nullptr && opts_.cancel->cancelled()) {
                res.point.report = Report{};
                res.point.report.stopReason = StopReason::Interrupted;
                res.point.failure = PointFailure{
                    StopReason::Interrupted,
                    "sweep interrupted before the cell could run",
                    std::string{}};
                break;
            }
            if (attempt > 0 && opts_.retry.backoffMs > 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(opts_.retry.backoffMs));
            }

            SimConfig s = sim_;
            s.seed = sim::deriveSeed(sim_.seed, i,
                                     k + attempt * kRetrySeedOffset);
            // The transient flavor of the poison drill only fails the
            // first attempt, modelling a seed-dependent transient.
            if (attempt > 0 && s.debugPoisonTransient)
                s.debugPoisonRate = -1.0;
            scope.setAttempt(attempt + 1);

            res = opts_.workerCommand.empty()
                      ? inProcess(s, i, k, scope)
                      : isolated(s.seed, i, k, attempt);
            res.point.attempts = attempt + 1;
            const PointResources& r = res.point.resources;
            if (r.valid) {
                used.valid = true;
                used.cpuSeconds += r.cpuSeconds;
                used.maxRssKb = std::max(used.maxRssKb, r.maxRssKb);
            }
            if (!retryable(res.point.failure))
                break;
        }
        res.point.ran = true;
        res.point.resources = used;
        return res;
    }

    /**
     * One attempt on the calling thread. A per-cell deadline and the
     * sweep-wide cancel token ride in via a chained CancelToken,
     * installed only when either is active so plain sweeps skip the
     * per-cycle token load. A throwing constructor is a check
     * failure without forensics.
     */
    CellResult
    inProcess(SimConfig s, std::size_t i, unsigned k,
              core::ProgressScope& scope) const
    {
        TrafficConfig t = traffic_;
        t.injectionRate = rates_[i];
        // Publish live cycle counts for the heartbeat thread.
        // Observability only: the periodic hook this installs is a
        // relaxed store, so results stay bit-identical.
        s.progressCycles = scope.cycles();
        core::CancelToken token(opts_.cancel);
        if (opts_.pointTimeoutSeconds > 0.0)
            token.armDeadline(opts_.pointTimeoutSeconds);
        if (opts_.pointTimeoutSeconds > 0.0 || opts_.cancel != nullptr)
            s.cancel = &token;

        CellResult res;
        SweepPoint& p = res.point;
        try {
            Simulation run(network_, t, s);
            p.report = run.run();
            if (s.telemetry.enabled()) {
                p.metricsCsv = run.metricsCsv();
                p.traceJson = run.traceJson(
                    "rate " + std::to_string(t.injectionRate) +
                    " seed " + std::to_string(k));
            }
            p.failure = triage(run, p.report);
        } catch (const std::exception& e) {
            p.report = Report{};
            p.report.stopReason = StopReason::CheckFailure;
            p.report.checkFailureDiagnostic = e.what();
            p.failure = PointFailure{StopReason::CheckFailure, e.what(),
                                     std::string{}};
        }
        return res;
    }

    /**
     * One attempt in a fork/exec'd worker: the worker command plus
     * this attempt's rate and seed. The worker returns its report
     * through --report-out in the journal's entry format (exact
     * hexfloat doubles, triaged by workerReportLine), so the result is
     * bit-identical to an in-process attempt. A crash, OOM kill, exec
     * failure or missing report becomes a WorkerCrash failure with
     * the exit status and stderr tail attached.
     */
    CellResult
    isolated(std::uint64_t seed, std::size_t i, unsigned k,
             unsigned attempt) const
    {
        const std::string report_path =
            workerDir_.path() + "/point_" + std::to_string(i) + "_" +
            std::to_string(k) + "_" + std::to_string(attempt) +
            ".entry";
        core::IsolateOptions io;
        io.argv = opts_.workerCommand;
        // Appended flags win over the shared command. The rate rides
        // as a hexfloat so the worker rebuilds the identical double.
        const std::string extra[] = {
            "--rate",       core::exactDouble(rates_[i]),
            "--seed",       std::to_string(seed),
            "--report-out", report_path};
        io.argv.insert(io.argv.end(), std::begin(extra),
                       std::end(extra));
        // The worker's own --point-timeout (in the command) stops it
        // cooperatively with forensics; this watchdog is only the
        // backstop for a wedged worker.
        io.timeoutSeconds = opts_.pointTimeoutSeconds > 0.0
                                ? opts_.pointTimeoutSeconds * 2.0 + 5.0
                                : 0.0;
        io.maxAddressSpaceBytes = opts_.workerMemBytes;
        io.maxCpuSeconds = opts_.workerCpuSeconds;
        io.quietStdout = true;
        io.cancel = opts_.cancel;

        const core::IsolateResult w = core::runIsolated(io);
        const std::optional<core::CheckpointEntry> entry =
            readWorkerEntry(report_path);
        std::remove(report_path.c_str());
        if (log::enabled(log::Level::Debug)) {
            log::event(
                log::Level::Debug, "sweep.worker_exit",
                {log::u64("rate_index", i),
                 log::u64("attempt", attempt + 1),
                 log::str("exit", w.describe()),
                 log::num("cpu_s", w.cpuSeconds),
                 log::u64("maxrss_kb", static_cast<std::uint64_t>(
                                           std::max(0L, w.maxRssKb)))});
        }

        CellResult res;
        SweepPoint& p = res.point;
        const auto fail = [&p](StopReason why, std::string message) {
            p.report = Report{};
            p.report.stopReason = why;
            p.failure =
                PointFailure{why, std::move(message), std::string{}};
        };
        if (w.interrupted || (w.exited && w.exitCode == 5)) {
            fail(StopReason::Interrupted,
                 "interrupted mid-run (SIGINT/SIGTERM)");
        } else if (w.timedOut) {
            // A wedge the cooperative deadline could not reach.
            fail(StopReason::Deadline,
                 "worker exceeded the watchdog deadline and was "
                 "killed (" +
                     w.describe() + ")");
        } else if (entry && (w.healthyExit() ||
                             (w.exited && w.exitCode == 6))) {
            // Exit 6 is the worker's cooperative --point-timeout; its
            // entry carries the deadline forensics.
            p = pointFromEntry(*entry);
            res.workerExit = w.describe();
        } else if (w.exited && w.exitCode == 6) {
            fail(StopReason::Deadline,
                 "worker hit --point-timeout (exit 6)");
        } else {
            res.workerExit = w.describe();
            std::string message =
                w.healthyExit()
                    ? "worker " + res.workerExit +
                          " but wrote no parseable report"
                    : "worker crashed (" + res.workerExit + ")";
            if (!w.stderrTail.empty())
                message += ": " + w.stderrTail;
            fail(StopReason::WorkerCrash, std::move(message));
        }
        if (w.haveRusage) {
            p.resources.valid = true;
            p.resources.cpuSeconds = w.cpuSeconds;
            p.resources.maxRssKb = w.maxRssKb;
        }
        return res;
    }

    const NetworkConfig& network_;
    const TrafficConfig& traffic_;
    const SimConfig& sim_;
    const std::vector<double>& rates_;
    const SweepOptions& opts_;
    ResumeIndex resume_;
    WorkerDir workerDir_;
};

} // namespace

std::string
workerReportLine(Simulation& run, const Report& report)
{
    CellResult cell;
    cell.point.report = report;
    cell.point.failure = triage(run, report);
    // Coordinates are (0, 0); the parent knows which cell it ran.
    return core::serializeEntry(makeEntry(0, 0, cell)) + "\n";
}

std::vector<SweepPoint>
Sweep::overRates(const NetworkConfig& network, const TrafficConfig& traffic,
                 const SimConfig& sim, const std::vector<double>& rates,
                 const SweepOptions& opts, unsigned seeds)
{
    assert(seeds >= 1);

    // Fan out over the flattened (rate, seed) grid, so a few rates
    // with many seeds still keep every worker busy.
    const CellRunner runner(network, traffic, sim, rates, seeds, opts);
    std::vector<SweepPoint> out(rates.size() * seeds);
    // Worker c writes only out[c], and parallelFor joins before any read.
    core::parallelFor(
        opts.jobs, out.size(),
        [&](std::size_t c) {
            out[c] =
                runner.run(c / seeds, static_cast<unsigned>(c % seeds));
        },
        opts.cancel);
    // Cells the cancelled cursor never dispensed still carry their
    // rate (slots default-construct with ran == false).
    for (std::size_t c = 0; c < out.size(); ++c)
        out[c].injectionRate = rates[c / seeds];
    return out;
}

std::vector<AveragedPoint>
Sweep::average(const std::vector<SweepPoint>& cells, unsigned seeds)
{
    assert(seeds >= 1 && cells.size() % seeds == 0);

    // Failed seeds are excluded from the aggregates; dividing by the
    // success count leaves the fault-free path bit-identical (success
    // count == seeds) while keeping partially failed points usable.
    std::vector<AveragedPoint> points;
    points.reserve(cells.size() / seeds);
    for (std::size_t first = 0; first < cells.size(); first += seeds) {
        AveragedPoint avg;
        avg.injectionRate = cells[first].injectionRate;
        avg.seeds = seeds;
        avg.allCompleted = true;
        unsigned ok = 0;
        for (std::size_t c = first; c < first + seeds; ++c) {
            const SweepPoint& cell = cells[c];
            if (cell.resources.valid) {
                avg.resources.valid = true;
                avg.resources.wallSeconds +=
                    cell.resources.wallSeconds;
                avg.resources.cpuSeconds += cell.resources.cpuSeconds;
                avg.resources.maxRssKb = std::max(
                    avg.resources.maxRssKb, cell.resources.maxRssKb);
            }
            // A cell the cancelled sweep never dispensed is neither a
            // success nor a failure; it just hasn't run yet.
            if (!cell.ran) {
                avg.allCompleted = false;
                continue;
            }
            ++avg.ranSeeds;
            avg.attempts += cell.attempts;
            if (cell.failure) {
                ++avg.failedSeeds;
                if (avg.firstFailure.empty())
                    avg.firstFailure = cell.failure->message;
                avg.allCompleted = false;
                continue;
            }
            const Report& r = cell.report;
            avg.allCompleted = avg.allCompleted && r.completed;
            avg.meanLatency += r.avgLatencyCycles;
            avg.meanPowerWatts += r.networkPowerWatts;
            avg.meanThroughput += r.acceptedFlitsPerNodePerCycle;
            if (ok == 0) {
                avg.minLatency = r.avgLatencyCycles;
                avg.maxLatency = r.avgLatencyCycles;
            } else {
                avg.minLatency =
                    std::min(avg.minLatency, r.avgLatencyCycles);
                avg.maxLatency =
                    std::max(avg.maxLatency, r.avgLatencyCycles);
            }
            ++ok;
        }
        if (ok > 0) {
            avg.meanLatency /= ok;
            avg.meanPowerWatts /= ok;
            avg.meanThroughput /= ok;
        }
        points.push_back(std::move(avg));
    }
    return points;
}

double
Sweep::zeroLoadLatency(const NetworkConfig& network,
                       const TrafficConfig& traffic, const SimConfig& sim)
{
    TrafficConfig t = traffic;
    t.injectionRate = 0.002;
    SimConfig s = sim;
    s.samplePackets = std::min<std::uint64_t>(sim.samplePackets, 500);
    Simulation run(network, t, s);
    return run.run().avgLatencyCycles;
}

double
Sweep::saturationRate(const std::vector<SweepPoint>& points,
                      double zero_load_latency)
{
    assert(zero_load_latency > 0.0);
    for (const auto& p : points) {
        if (!p.report.completed ||
            p.report.avgLatencyCycles > 2.0 * zero_load_latency) {
            return p.injectionRate;
        }
    }
    return -1.0;
}

std::vector<double>
Sweep::linspace(double first, double last, unsigned count)
{
    assert(count >= 2 && last >= first);
    std::vector<double> v;
    v.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        v.push_back(first + (last - first) * i /
                    static_cast<double>(count - 1));
    }
    return v;
}

} // namespace orion
