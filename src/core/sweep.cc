#include "core/sweep.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>

#include <stdlib.h>

#include "base/clock.hh"
#include "core/checkpoint.hh"
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
/** A cell's attempts at most: the second runs when the stop table
 * retries the first one's stop. */
constexpr unsigned kMaxAttempts = 2;

/**
 * What the stop table cannot say about a finished run, shared by the
 * in-process backend and the isolated worker's report: the message
 * and forensic snapshot of each kind of failure the run itself
 * reports.
 */
void
triage(Simulation& run, SweepPoint& p)
{
    const Report& r = p.report;
    if (r.stopReason == StopReason::CheckFailure) {
        p.failureMessage = r.checkFailureDiagnostic;
        p.failureForensics = forensicSnapshot(run, p.failureMessage);
    } else if (r.stopReason == StopReason::Deadline) {
        p.failureMessage = "point exceeded its deadline after " +
                           std::to_string(r.totalCycles) + " cycles";
        p.failureForensics = forensicSnapshot(run, "point deadline expired");
    } else if (r.stopReason == StopReason::Interrupted) {
        p.failureMessage = "interrupted mid-run (SIGINT/SIGTERM)";
    }
}

/** A failed point that has only a stop reason and a message: the run
 * never started, threw, or died in its worker. */
SweepPoint
failedPoint(StopReason why, std::string message)
{
    SweepPoint p;
    p.report.stopReason = why;
    p.failureMessage = std::move(message);
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

/** (rate index, seed index) -> cached cell; duplicates last-wins
 * (repeated resumes re-journal nothing, but stay safe anyway). */
using ResumeIndex =
    std::map<std::pair<std::uint64_t, std::uint64_t>, const SweepPoint*>;

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
 * up to kMaxAttempts attempts, each on its own seed band, either
 * in-process or in a fork/exec'd worker
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
            resume_[{e.rateIndex, e.seedIndex}] = &e.point;
        }
    }

    /** Cell (@p i, @p k): merged from the resume journal, or run and
     * then journaled when the stop table journals its outcome. */
    SweepPoint
    run(std::size_t i, unsigned k) const
    {
        const auto hit = resume_.find({i, k});
        if (hit != resume_.end()) {
            SweepPoint p = *hit->second;
            p.injectionRate = rates_[i];
            p.ran = true;
            p.fromCheckpoint = true;
            if (opts_.progress != nullptr)
                opts_.progress->noteCached(p.failed());
            return p;
        }

        // One stopwatch per cell (observability only; never journaled
        // or compared): it fills the resource columns and the
        // tracker's point-time samples.
        core::ProgressScope scope(opts_.progress, i, k);
        const double wall0 = core::monotonicSeconds();
        const double cpu0 = core::threadCpuSeconds();
        core::CheckpointEntry cell{i, k, attempts(i, k, scope)};
        SweepPoint& p = cell.point;
        const double wall_s = core::monotonicSeconds() - wall0;
        PointResources& rs = p.resources;
        if (opts_.workerCommand.empty()) {
            rs.valid = true;
            rs.cpuSeconds = core::threadCpuSeconds() - cpu0;
        }
        if (rs.valid)
            rs.wallSeconds = wall_s;
        p.injectionRate = rates_[i];
        if (opts_.journal != nullptr &&
            stopRule(p.report.stopReason).journaled)
            opts_.journal->append(cell);
        // End after the journal append so the run manifest's done
        // count never exceeds the journal's entry count.
        scope.end(p.failed(), wall_s);
        return std::move(p);
    }

    /** The zero-load probe: one attempt, on sim.seed, that no tracker
     * counts (see Sweep::zeroLoadProbe). */
    SweepPoint
    probe() const
    {
        TrafficConfig t = traffic_;
        t.injectionRate = 0.002;
        SimConfig s = sim_;
        s.samplePackets = std::min<std::uint64_t>(sim_.samplePackets, 500);
        s.telemetry = {};
        core::ProgressScope untracked(nullptr, 0, 0);
        SweepPoint p = runAttempt(t, s, 0, 0, 0, untracked);
        p.injectionRate = t.injectionRate;
        p.ran = true;
        return p;
    }

  private:
    /** The retry loop: one attempt per seed band until one stops in a
     * way the stop table does not retry, or kMaxAttempts ran. */
    SweepPoint
    attempts(std::size_t i, unsigned k,
             core::ProgressScope& scope) const
    {
        SweepPoint p;
        PointResources used;
        TrafficConfig t = traffic_;
        t.injectionRate = rates_[i];
        for (unsigned attempt = 0; attempt < kMaxAttempts; ++attempt) {
            // An interrupt between attempts ends the cell immediately:
            // retrying a point nobody will wait for helps no one.
            if (opts_.cancel != nullptr && opts_.cancel->cancelled()) {
                p = failedPoint(
                    StopReason::Interrupted,
                    "sweep interrupted before the cell could run");
                break;
            }

            SimConfig s = sim_;
            s.seed = sim::deriveSeed(sim_.seed, i,
                                     k + attempt * kRetrySeedOffset);
            // The transient flavor of the poison drill only fails the
            // first attempt, modelling a seed-dependent transient.
            if (attempt > 0 && s.debugPoisonTransient)
                s.debugPoisonRate = -1.0;
            scope.setAttempt(attempt + 1);

            p = runAttempt(t, s, i, k, attempt, scope);
            p.attempts = attempt + 1;
            const PointResources& r = p.resources;
            if (r.valid) {
                used.valid = true;
                used.cpuSeconds += r.cpuSeconds;
                used.maxRssKb = std::max(used.maxRssKb, r.maxRssKb);
            }
            if (!stopRule(p.report.stopReason).retried)
                break;
        }
        p.ran = true;
        p.resources = used;
        return p;
    }

    /** Attempt @p attempt of cell (@p i, @p k): @p t and @p s, with
     * its rate and seed set, run in-process or in a worker. */
    SweepPoint
    runAttempt(const TrafficConfig& t, const SimConfig& s, std::size_t i,
               unsigned k, unsigned attempt,
               core::ProgressScope& scope) const
    {
        return opts_.workerCommand.empty()
                   ? inProcess(t, s, k, scope)
                   : isolated(t, s, i, k, attempt);
    }

    /**
     * One attempt on the calling thread. A per-cell deadline and the
     * sweep-wide cancel token ride in via a chained CancelToken,
     * installed only when either is active so plain sweeps skip the
     * per-cycle token load. A throwing constructor is a check
     * failure without forensics.
     */
    SweepPoint
    inProcess(const TrafficConfig& t, SimConfig s, unsigned k,
              core::ProgressScope& scope) const
    {
        // Publish live cycle counts for the run manifest.
        // Observability only: the periodic hook this installs is a
        // relaxed store, so results stay bit-identical.
        s.progressCycles = scope.cycles();
        core::CancelToken token(opts_.cancel);
        if (opts_.pointTimeoutSeconds > 0.0)
            token.armDeadline(opts_.pointTimeoutSeconds);
        if (opts_.pointTimeoutSeconds > 0.0 || opts_.cancel != nullptr)
            s.cancel = &token;

        SweepPoint p;
        try {
            Simulation run(network_, t, s);
            p.report = run.run();
            if (s.telemetry.enabled()) {
                p.metricsCsv = run.metricsCsv();
                p.traceJson = run.traceJson(
                    "rate " + std::to_string(t.injectionRate) +
                    " seed " + std::to_string(k));
            }
            triage(run, p);
        } catch (const std::exception& e) {
            p = failedPoint(StopReason::CheckFailure, e.what());
            p.report.checkFailureDiagnostic = e.what();
        }
        return p;
    }

    /**
     * One attempt in a fork/exec'd worker: the worker command plus
     * this attempt's rate, seed and sample. The worker returns its
     * report through --report-out in the journal's entry format (exact
     * hexfloat doubles, triaged by workerReportLine), so the result is
     * bit-identical to an in-process attempt. The report counts only
     * when the worker's exit status is the stop table's code for its
     * stop reason; a crash, OOM kill, exec failure, missing report or
     * any other exit becomes a WorkerCrash failure with the exit
     * status and stderr tail attached.
     */
    SweepPoint
    isolated(const TrafficConfig& t, const SimConfig& s, std::size_t i,
             unsigned k, unsigned attempt) const
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
            "--rate",       core::exactDouble(t.injectionRate),
            "--seed",       std::to_string(s.seed),
            "--sample",     std::to_string(s.samplePackets),
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
        std::optional<core::CheckpointEntry> entry =
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

        const auto exited = [&w](StopReason why) {
            return w.exited && w.exitCode == stopRule(why).exitCode;
        };
        SweepPoint p;
        if (w.interrupted || exited(StopReason::Interrupted)) {
            p = failedPoint(StopReason::Interrupted,
                            "interrupted mid-run (SIGINT/SIGTERM)");
        } else if (w.timedOut) {
            // A wedge the cooperative deadline could not reach.
            p = failedPoint(StopReason::Deadline,
                            "worker exceeded the watchdog deadline and "
                            "was killed (" +
                                w.describe() + ")");
        } else if (entry && exited(entry->point.report.stopReason)) {
            p = std::move(entry->point);
            p.workerExit = w.describe();
        } else {
            const std::string status = w.describe();
            std::string message =
                !w.exited ? "worker crashed (" + status + ")"
                : entry   ? "worker " + status + " but its report says " +
                              stopReasonName(entry->point.report.stopReason)
                          : "worker " + status +
                              " but wrote no parseable report";
            if (!w.stderrTail.empty())
                message += ": " + w.stderrTail;
            p = failedPoint(StopReason::WorkerCrash, std::move(message));
            p.workerExit = status;
        }
        if (w.haveRusage) {
            p.resources.valid = true;
            p.resources.cpuSeconds = w.cpuSeconds;
            p.resources.maxRssKb = w.maxRssKb;
        }
        return p;
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
    // Coordinates are (0, 0); the parent knows which cell it ran.
    core::CheckpointEntry cell;
    cell.point.report = report;
    triage(run, cell.point);
    return core::serializeEntry(cell) + "\n";
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
            if (cell.failed()) {
                ++avg.failedSeeds;
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

SweepPoint
Sweep::zeroLoadProbe(const NetworkConfig& network,
                     const TrafficConfig& traffic, const SimConfig& sim,
                     const SweepOptions& opts)
{
    const std::vector<double> no_cells;
    return CellRunner(network, traffic, sim, no_cells, 1, opts).probe();
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
