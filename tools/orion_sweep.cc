/**
 * @file
 * orion_sweep — injection-rate sweep driver.
 *
 * Runs the same configuration across a range of injection rates and
 * emits one CSV row per point (the series behind latency/power vs.
 * load figures), plus the measured zero-load latency and the paper's
 * 2x-zero-load saturation point. `orion_sweep --help` lists its
 * options (core/cli.cc declares them).
 *
 * Exit codes: 0 ok; 1 usage error, unreadable input or unexpected
 * exception; 3 one or more points or the zero-load probe failed (rows
 * for healthy points still printed); 4 an output could not be written
 * (stdout, the run manifest, the --log-out file, a
 * --metrics-dir/--trace-dir file; wins over 3); 5 interrupted by
 * SIGINT/SIGTERM (no CSV; a resume hint is printed when journaling).
 * See docs/ROBUSTNESS.md.
 *
 * Example:
 *   orion_sweep --preset vc64 --rates 0.02:0.18:9 --seeds 3 > vc64.csv
 */

#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/cancel.hh"
#include "core/checkpoint.hh"
#include "core/cli.hh"
#include "core/executor.hh"
#include "core/log.hh"
#include "core/manifest.hh"
#include "core/progress.hh"
#include "core/report.hh"
#include "core/sweep.hh"

using namespace orion;

namespace {

namespace log = core::log;

/** Append the --resources cells (wall_s, cpu_s, maxrss_kb; empty
 * when unmeasured) to @p row. */
void
appendResources(std::vector<std::string>& row, const PointResources& rs)
{
    row.push_back(rs.valid ? report::fmt(rs.wallSeconds, 3) : "");
    row.push_back(rs.valid ? report::fmt(rs.cpuSeconds, 3) : "");
    row.push_back(rs.valid ? std::to_string(rs.maxRssKb) : "");
}

/** DIR/point_NNN.EXT for sweep point @p i. */
std::string
pointPath(const std::string& dir, std::size_t i, const char* ext)
{
    char name[32];
    std::snprintf(name, sizeof name, "point_%03zu.%s", i, ext);
    return (std::filesystem::path(dir) / name).string();
}

/** The directory seed @p k of @p seeds exports into: DIR itself for
 * a single-seed sweep, DIR/seed_K otherwise. */
std::string
seedDir(const std::string& dir, unsigned k, unsigned seeds)
{
    if (seeds == 1)
        return dir;
    char name[24];
    std::snprintf(name, sizeof name, "seed_%u", k);
    return (std::filesystem::path(dir) / name).string();
}

/**
 * A failed probe's diagnosis on stderr, then each failed rate's, each
 * followed by the forensic snapshot of each of its failed cells, in
 * cell order.
 */
void
printFailures(const SweepPoint& probe, const std::vector<SweepPoint>& cells,
              unsigned seeds)
{
    if (probe.failed()) {
        const char* why = stopReasonName(probe.report.stopReason);
        log::diag(log::Level::Error, "sweep.probe_failed",
                  log::strf("orion_sweep: zero-load probe failed (%s): %s\n",
                            why, probe.failureMessage.c_str()),
                  {log::str("reason", why)});
        log::rawStderr(probe.failureForensics);
    }
    for (std::size_t first = 0; first < cells.size(); first += seeds) {
        std::vector<const SweepPoint*> failed;
        for (std::size_t c = first; c < first + seeds; ++c) {
            if (cells[c].failed())
                failed.push_back(&cells[c]);
        }
        if (failed.empty())
            continue;
        const double rate = cells[first].injectionRate;
        const SweepPoint& f = *failed.front();
        if (seeds == 1) {
            const char* why = stopReasonName(f.report.stopReason);
            log::diag(log::Level::Error, "sweep.point_failed",
                      log::strf("orion_sweep: rate %.4f failed (%s): %s\n",
                                rate, why, f.failureMessage.c_str()),
                      {log::num("rate", rate), log::str("reason", why)});
        } else {
            log::diag(log::Level::Error, "sweep.point_failed",
                      log::strf("orion_sweep: rate %.4f: %zu of %u seeds "
                                "failed: %s\n",
                                rate, failed.size(), seeds,
                                f.failureMessage.c_str()));
        }
        for (const SweepPoint* cell : failed)
            log::rawStderr(cell->failureForensics);
    }
}

/**
 * The `#` line under the CSV: the zero-load latency, unknown when the
 * probe failed or delivered no sample packet, then the saturation
 * rate of a single-seed sweep or the seed count of a multi-seed one.
 */
void
printZeroLoad(const SweepPoint& probe, const std::vector<SweepPoint>& cells,
              unsigned seeds, std::uint64_t failed_seeds)
{
    const double z = probe.report.avgLatencyCycles;
    const bool known = !probe.failed() && z > 0.0;
    const std::string latency =
        known ? log::strf("%.2f cycles", z)
              : log::strf("unknown (the probe stopped with %s)",
                          stopReasonName(probe.report.stopReason));
    if (seeds > 1) {
        log::diag(log::Level::Info, "sweep.done",
                  log::strf("# zero-load latency: %s; %u seeds per point\n",
                            latency.c_str(), seeds),
                  {log::u64("failed_seeds", failed_seeds)});
        return;
    }
    const double sat = known ? Sweep::saturationRate(cells, z) : std::nan("");
    log::diag(log::Level::Info, "sweep.done",
              log::strf("# zero-load latency: %s; "
                        "saturation (2x zero-load): %s\n",
                        latency.c_str(),
                        !known    ? "unknown"
                        : sat < 0 ? "beyond swept range"
                                  : report::fmt(sat, 3).c_str()),
              {log::num("zero_load_cycles", known ? z : std::nan("")),
               log::num("saturation_rate", sat)});
}

/** The single-seed output: one row per rate with the full report. */
void
printPoints(const std::vector<SweepPoint>& points, bool resources)
{
    report::Table t;
    t.headers = {"rate",    "completed", "latency", "p95",
                 "throughput", "power_w", "buffer_w", "crossbar_w",
                 "arbiter_w",  "link_w",  "status",   "attempts"};
    if (resources)
        t.headers.insert(t.headers.end(), {"wall_s", "cpu_s", "maxrss_kb"});
    for (const SweepPoint& p : points) {
        const Report& r = p.report;
        std::vector<std::string> row{
            report::fmt(p.injectionRate, 4),
            r.completed ? "1" : "0",
            report::fmt(r.avgLatencyCycles, 3),
            report::fmt(r.p95LatencyCycles, 0),
            report::fmt(r.acceptedFlitsPerNodePerCycle, 4),
            report::fmt(r.networkPowerWatts, 4),
            report::fmt(r.breakdownWatts.buffer, 4),
            report::fmt(r.breakdownWatts.crossbar, 4),
            report::fmt(r.breakdownWatts.arbiter, 5),
            report::fmt(r.breakdownWatts.link, 4),
            stopReasonName(r.stopReason),
            std::to_string(p.attempts),
        };
        if (resources)
            appendResources(row, p.resources);
        t.addRow(std::move(row));
    }
    std::fputs(report::formatCsv(t).c_str(), stdout);
}

/**
 * The multi-seed output: one row per rate with the seed mean and
 * latency spread.
 */
void
printAveraged(const std::vector<SweepPoint>& cells, unsigned seeds,
              bool resources)
{
    report::Table t;
    t.headers = {"rate",        "completed",   "latency_mean",
                 "latency_min", "latency_max", "throughput",
                 "power_w",     "failed_seeds", "attempts"};
    if (resources)
        t.headers.insert(t.headers.end(), {"wall_s", "cpu_s", "maxrss_kb"});
    for (const AveragedPoint& p : Sweep::average(cells, seeds)) {
        std::vector<std::string> row{
            report::fmt(p.injectionRate, 4),
            p.allCompleted ? "1" : "0",
            report::fmt(p.meanLatency, 3),
            report::fmt(p.minLatency, 3),
            report::fmt(p.maxLatency, 3),
            report::fmt(p.meanThroughput, 4),
            report::fmt(p.meanPowerWatts, 4),
            std::to_string(p.failedSeeds),
            std::to_string(p.attempts),
        };
        if (resources)
            appendResources(row, p.resources);
        t.addRow(std::move(row));
    }
    std::fputs(report::formatCsv(t).c_str(), stdout);
}

} // namespace

int
main(int argc, char** argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    bool interrupted = false;
    try {
        const cli::Options opts = cli::parse(args, cli::Tool::Sweep);
        if (opts.helpRequested) {
            std::fputs(cli::usage(cli::Tool::Sweep).c_str(), stdout);
            return 0;
        }
        cli::configureLogger(opts);
        const std::vector<double>& rates = opts.rates;
        const unsigned seeds = opts.seeds;

        // One Ctrl-C/SIGTERM stops every in-flight point
        // cooperatively; a second one kills the process the
        // old-fashioned way (the handler stays installed but the
        // token is already cancelled).
        std::signal(SIGPIPE, SIG_IGN);
        core::installInterruptHandlers();

        // Per-point telemetry export (parse() turned it on): make the
        // directories before the sweep runs.
        for (const std::string& dir : {opts.metricsDir, opts.traceDir}) {
            if (!dir.empty())
                std::filesystem::create_directories(dir);
        }

        // Checkpoint plumbing: the fingerprint binds the journal to
        // this exact configuration and grid; a mismatched --resume is
        // a structured error, never a silent mix of results.
        const std::uint64_t fingerprint = core::sweepFingerprint(
            opts.network, opts.traffic, opts.sim, rates, seeds);
        std::vector<core::CheckpointEntry> resume_entries;
        std::unique_ptr<core::CheckpointJournal> journal;
        if (!opts.resume.empty()) {
            core::CheckpointLoad load =
                core::loadCheckpoint(opts.resume, fingerprint);
            resume_entries = std::move(load.entries);
            if (load.truncatedTail) {
                log::diag(log::Level::Warn, "sweep.torn_journal",
                          "orion_sweep: note: dropped a torn "
                          "final journal line (crash artifact); "
                          "that cell reruns\n");
            }
            log::diag(log::Level::Info, "sweep.resume",
                      log::strf("orion_sweep: resuming: %zu cells "
                                "cached in '%s'\n",
                                resume_entries.size(),
                                opts.resume.c_str()),
                      {log::u64("cached", resume_entries.size()),
                       log::str("journal", opts.resume)});
            journal = std::make_unique<core::CheckpointJournal>(
                opts.resume, fingerprint, /*resume=*/true);
        } else if (!opts.checkpoint.empty()) {
            journal = std::make_unique<core::CheckpointJournal>(
                opts.checkpoint, fingerprint, /*resume=*/false);
        }
        const std::string journal_path =
            !opts.resume.empty() ? opts.resume : opts.checkpoint;

        // The tracker counts the cells and keeps the run manifest
        // (--manifest-out, or beside the journal) live; a manifest it
        // cannot write stops the run here, before anything runs.
        core::ProgressTracker::Options po;
        po.manifestPath = opts.manifestOut;
        po.manifest = core::RunManifest::begin("orion_sweep");
        po.manifest.fingerprintHex = core::hex16(fingerprint);
        po.manifest.seed = opts.sim.seed;
        po.manifest.seeds = seeds;
        po.manifest.ratePoints = rates.size();
        po.manifest.pointsTotal =
            static_cast<std::uint64_t>(rates.size()) * seeds;
        po.manifest.jobs = core::resolveJobs(opts.jobs);
        po.progressLine = opts.progress;
        log::event(log::Level::Info, "sweep.start",
                   {log::str("fingerprint", po.manifest.fingerprintHex),
                    log::u64("rate_points", rates.size()),
                    log::u64("seeds", seeds),
                    log::u64("cells", po.manifest.pointsTotal),
                    log::boolean("isolate", opts.isolate),
                    log::u64("cached", resume_entries.size())});
        core::ProgressTracker tracker(std::move(po));

        SweepOptions sweep_opts;
        sweep_opts.jobs = opts.jobs;
        sweep_opts.pointTimeoutSeconds = opts.pointTimeoutSeconds;
        sweep_opts.cancel = &core::interruptToken();
        sweep_opts.journal = journal.get();
        sweep_opts.resume =
            opts.resume.empty() ? nullptr : &resume_entries;
        sweep_opts.progress = &tracker;
        if (opts.isolate) {
            // Default worker: the orion_sim built next to this binary.
            sweep_opts.workerCommand.push_back(
                !opts.isolateExe.empty()
                    ? opts.isolateExe
                    : (std::filesystem::path(argv[0]).parent_path() /
                       "orion_sim")
                          .string());
            const std::vector<std::string> cell = cli::workerArgs(args);
            sweep_opts.workerCommand.insert(sweep_opts.workerCommand.end(),
                                            cell.begin(), cell.end());
            sweep_opts.workerMemBytes = opts.isolateMemMb * 1024 * 1024;
            sweep_opts.workerCpuSeconds = opts.isolateCpuSeconds;
        }

        const SweepPoint probe = Sweep::zeroLoadProbe(
            opts.network, opts.traffic, opts.sim, sweep_opts);
        const std::vector<SweepPoint> cells =
            Sweep::overRates(opts.network, opts.traffic, opts.sim, rates,
                             sweep_opts, seeds);
        const std::uint64_t failed = tracker.snapshot().pointsFailed;
        // An interrupt means no CSV (a partial table masquerading as
        // a full sweep is worse than none): print the resume recipe
        // instead and exit 5, even when the manifest is lost too.
        interrupted = core::interruptToken().cancelled();
        tracker.finish(interrupted      ? "interrupted"
                       : failed > 0     ? "failed-points"
                       : probe.failed() ? "failed-probe"
                                        : "ok");
        if (interrupted) {
            log::diag(log::Level::Warn, "sweep.interrupted",
                      log::strf("orion_sweep: interrupted (signal %d) "
                                "mid-sweep; no CSV emitted\n",
                                core::interruptSignal()));
            if (!journal_path.empty()) {
                log::diag(
                    log::Level::Info, "sweep.resume_hint",
                    log::strf("orion_sweep: finished cells are "
                              "journaled; rerun with --resume '%s' "
                              "(instead of --checkpoint) to pick up "
                              "where this run stopped\n",
                              journal_path.c_str()));
            } else {
                log::diag(log::Level::Info, "sweep.resume_hint",
                          "orion_sweep: no --checkpoint journal, "
                          "so finished cells were discarded\n");
            }
            return 5;
        }

        // Telemetry: DIR/point_NNN.{csv,json}, in per-seed
        // subdirectories DIR/seed_K/ with --seeds N>1, where seeds
        // that captured nothing (failed) write no file.
        for (unsigned k = 0; k < seeds; ++k) {
            for (const std::string& dir : {opts.metricsDir, opts.traceDir}) {
                if (!dir.empty())
                    std::filesystem::create_directories(
                        seedDir(dir, k, seeds));
            }
        }
        for (std::size_t c = 0; c < cells.size(); ++c) {
            const auto exportTo = [&](const std::string& dir,
                                      const std::string& content,
                                      const char* ext) {
                if (dir.empty() || (seeds > 1 && content.empty()))
                    return;
                const auto k = static_cast<unsigned>(c % seeds);
                core::writeFile(
                    pointPath(seedDir(dir, k, seeds), c / seeds, ext),
                    content);
            };
            exportTo(opts.metricsDir, cells[c].metricsCsv, "csv");
            exportTo(opts.traceDir, cells[c].traceJson, "json");
        }

        if (seeds == 1)
            printPoints(cells, opts.resources);
        else
            printAveraged(cells, seeds, opts.resources);
        printZeroLoad(probe, cells, seeds, failed);
        printFailures(probe, cells, seeds);
        core::flushStdout();
        // Failure isolation: every healthy point above still printed;
        // failed points and a failed probe carry their diagnosis and
        // flip the exit code.
        return failed > 0 || probe.failed() ? 3 : 0;
    } catch (const core::IoError& e) {
        log::diag(log::Level::Error, "sweep.io_error",
                  log::strf("orion_sweep: %s\n", e.what()));
        return interrupted ? 5 : 4;
    } catch (const std::invalid_argument& e) {
        // cli::parse's usage errors carry the tool prefix already.
        log::diag(log::Level::Error, "sweep.error",
                  log::strf("%s\n", e.what()));
        return 1;
    } catch (const std::exception& e) {
        log::diag(log::Level::Error, "sweep.error",
                  log::strf("orion_sweep: %s\n", e.what()));
        return 1;
    }
}
