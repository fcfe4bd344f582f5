/**
 * @file
 * orion_sweep — injection-rate sweep driver.
 *
 * Runs the same configuration across a range of injection rates and
 * emits one CSV row per point (the series behind latency/power vs.
 * load figures), plus the measured zero-load latency and the paper's
 * 2x-zero-load saturation point. Accepts all orion_sim options plus
 * the sweep options `orion_sweep --help` lists: the rate grid and
 * seed count, per-point telemetry directories, checkpoint/resume,
 * crash isolation, heartbeat and resource columns.
 *
 * Exit codes: 0 ok; 1 usage error or unexpected exception; 3 one or
 * more points failed (rows for healthy points still printed); 4 an
 * output could not be written (stdout, a --metrics-dir/--trace-dir
 * file; wins over 3); 5 interrupted by SIGINT/SIGTERM (no CSV; a
 * resume hint is printed when journaling). See docs/ROBUSTNESS.md.
 *
 * Example:
 *   orion_sweep --preset vc64 --rates 0.02:0.18:9 --seeds 3 > vc64.csv
 */

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
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
 * The single-seed output: one row per rate with the full report, the
 * saturation line, and each failed point's diagnosis with its
 * forensics on stderr.
 */
void
printPoints(const std::vector<SweepPoint>& points, bool resources,
            double zero_load)
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

    const double sat = Sweep::saturationRate(points, zero_load);
    log::diag(log::Level::Info, "sweep.done",
              log::strf("# zero-load latency: %.2f cycles; "
                        "saturation (2x zero-load): %s\n",
                        zero_load,
                        sat < 0 ? "beyond swept range"
                                : report::fmt(sat, 3).c_str()),
              {log::num("zero_load_cycles", zero_load),
               log::num("saturation_rate", sat)});
    for (const SweepPoint& p : points) {
        if (!p.failure)
            continue;
        log::diag(log::Level::Error, "sweep.point_failed",
                  log::strf("orion_sweep: rate %.4f failed (%s): %s\n",
                            p.injectionRate,
                            stopReasonName(p.failure->reason),
                            p.failure->message.c_str()),
                  {log::num("rate", p.injectionRate),
                   log::str("reason", stopReasonName(p.failure->reason))});
        if (!p.failure->forensicsJson.empty())
            log::rawStderr(p.failure->forensicsJson);
    }
}

/**
 * The multi-seed output: one row per rate with the seed mean and
 * latency spread, then one line per rate with failed seeds.
 */
void
printAveraged(const std::vector<SweepPoint>& cells, unsigned seeds,
              bool resources, double zero_load,
              std::uint64_t failed_seeds)
{
    report::Table t;
    t.headers = {"rate",        "completed",   "latency_mean",
                 "latency_min", "latency_max", "throughput",
                 "power_w",     "failed_seeds", "attempts"};
    if (resources)
        t.headers.insert(t.headers.end(), {"wall_s", "cpu_s", "maxrss_kb"});
    const std::vector<AveragedPoint> points = Sweep::average(cells, seeds);
    for (const AveragedPoint& p : points) {
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

    log::diag(log::Level::Info, "sweep.done",
              log::strf("# zero-load latency: %.2f cycles; "
                        "%u seeds per point\n",
                        zero_load, seeds),
              {log::u64("failed_seeds", failed_seeds)});
    for (const AveragedPoint& p : points) {
        if (p.failedSeeds == 0)
            continue;
        log::diag(log::Level::Error, "sweep.point_failed",
                  log::strf("orion_sweep: rate %.4f: %u of %u seeds "
                            "failed: %s\n",
                            p.injectionRate, p.failedSeeds, p.seeds,
                            p.firstFailure.c_str()));
    }
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    std::vector<double> rates = Sweep::linspace(0.01, 0.20, 10);
    unsigned seeds = 1;
    std::string metrics_dir;
    std::string trace_dir;
    std::string checkpoint_path;
    std::string resume_path;
    bool isolate = false;
    std::string isolate_exe;
    std::uint64_t isolate_mem_mb = 0;
    std::uint64_t isolate_cpu_s = 0;
    std::string heartbeat_path;
    double heartbeat_interval = 1.0;
    bool progress_line = false;
    bool resources_cols = false;

    // Extract the sweep-only options, pass the rest to the shared
    // parser (and, in --isolate mode, to the worker processes).
    std::vector<std::string> rest;
    try {
        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string& a = args[i];
            const auto value = [&]() -> const std::string& {
                if (i + 1 >= args.size())
                    throw std::invalid_argument(a + ": missing value");
                return args[++i];
            };
            if (a == "--isolate")
                isolate = true;
            else if (a == "--progress")
                progress_line = true;
            else if (a == "--resources")
                resources_cols = true;
            else if (a == "--rates")
                rates = cli::parseRateSpec(value());
            else if (a == "--seeds")
                seeds = static_cast<unsigned>(
                    cli::parseU64(a, value(), UINT_MAX));
            else if (a == "--metrics-dir")
                metrics_dir = value();
            else if (a == "--trace-dir")
                trace_dir = value();
            else if (a == "--checkpoint")
                checkpoint_path = value();
            else if (a == "--resume")
                resume_path = value();
            else if (a == "--isolate-exe")
                isolate_exe = value();
            else if (a == "--isolate-mem") // MiB, converted to bytes
                isolate_mem_mb = cli::parseU64(a, value(), UINT64_MAX >> 20);
            else if (a == "--isolate-cpu")
                isolate_cpu_s = cli::parseU64(a, value());
            else if (a == "--heartbeat")
                heartbeat_path = value();
            else if (a == "--heartbeat-interval")
                heartbeat_interval = cli::parseDouble(a, value());
            else
                rest.push_back(a);
        }
    } catch (const std::exception& e) {
        log::diag(log::Level::Error, "sweep.usage",
                  log::strf("orion_sweep: %s\n", e.what()));
        return 1;
    }
    if (seeds < 1) {
        log::diag(log::Level::Error, "sweep.usage",
                  "orion_sweep: --seeds must be >= 1\n");
        return 1;
    }
    if (rates.size() * seeds > cli::kMaxSweepCells) {
        log::diag(log::Level::Error, "sweep.usage",
                  log::strf("orion_sweep: %zu rates x %u seeds is more "
                            "than the %llu cells a sweep may hold\n",
                            rates.size(), seeds, cli::kMaxSweepCells));
        return 1;
    }
    if (heartbeat_interval <= 0.0) {
        log::diag(log::Level::Error, "sweep.usage",
                  "orion_sweep: --heartbeat-interval must be > 0 "
                  "seconds\n");
        return 1;
    }
    if (!checkpoint_path.empty() && !resume_path.empty()) {
        log::diag(log::Level::Error, "sweep.usage",
                  "orion_sweep: --checkpoint and --resume are "
                  "mutually exclusive (--resume keeps appending "
                  "to its journal)\n");
        return 1;
    }
    const bool journaling =
        !checkpoint_path.empty() || !resume_path.empty();
    if (journaling && (!metrics_dir.empty() || !trace_dir.empty())) {
        log::diag(log::Level::Error, "sweep.usage",
                  "orion_sweep: --checkpoint/--resume cannot be "
                  "combined with --metrics-dir/--trace-dir "
                  "(telemetry exports are not journaled)\n");
        return 1;
    }
    if (isolate && (!metrics_dir.empty() || !trace_dir.empty())) {
        log::diag(log::Level::Error, "sweep.usage",
                  "orion_sweep: --isolate cannot be combined with "
                  "--metrics-dir/--trace-dir\n");
        return 1;
    }
    if (!isolate && (!isolate_exe.empty() || isolate_mem_mb != 0 ||
                     isolate_cpu_s != 0)) {
        log::diag(log::Level::Error, "sweep.usage",
                  "orion_sweep: --isolate-exe/--isolate-mem/"
                  "--isolate-cpu require --isolate\n");
        return 1;
    }

    try {
        const cli::Options opts = cli::parse(rest, "orion_sweep");
        if (opts.helpRequested) {
            static_assert(cli::kMaxSweepCells == 100000,
                          "the help text names the grid bound");
            std::fputs(cli::usage().c_str(), stdout);
            std::fputs("\nsweep:\n  --rates FIRST:LAST:COUNT   "
                       "evenly spaced rates (default 0.01:0.20:10)\n"
                       "  --seeds N                  average each point "
                       "over N seeds\n"
                       "                             (rates x seeds <= "
                       "100000 cells)\n"
                       "  --metrics-dir DIR          per-point metric "
                       "CSVs (DIR/point_NNN.csv;\n"
                       "                             DIR/seed_K/... "
                       "with --seeds N>1)\n"
                       "  --trace-dir DIR            per-point Chrome "
                       "traces (DIR/point_NNN.json;\n"
                       "                             per-seed subdirs "
                       "with --seeds N>1)\n"
                       "  --checkpoint FILE          journal finished "
                       "cells to FILE (crash-safe)\n"
                       "  --resume FILE              skip cells "
                       "journaled in FILE, append new ones;\n"
                       "                             merged output is "
                       "byte-identical to an\n"
                       "                             uninterrupted run "
                       "at any --jobs\n"
                       "  --isolate                  one orion_sim "
                       "subprocess per point (crashes\n"
                       "                             become structured "
                       "failed rows)\n"
                       "  --isolate-exe PATH         worker binary "
                       "(default: next to orion_sweep)\n"
                       "  --isolate-mem MB           worker RLIMIT_AS "
                       "cap (MiB)\n"
                       "  --isolate-cpu SEC          worker RLIMIT_CPU "
                       "cap (seconds)\n"
                       "  --heartbeat FILE           atomically "
                       "rewritten progress JSON (watch with\n"
                       "                             tools/"
                       "orion_status.py)\n"
                       "  --heartbeat-interval SEC   background "
                       "refresh period (default 1)\n"
                       "  --progress                 rewriting stderr "
                       "progress line (TTY only)\n"
                       "  --resources                append wall_s/"
                       "cpu_s/maxrss_kb CSV columns\n"
                       "                             (nondeterministic "
                       "values; off by default)\n",
                       stdout);
            return 0;
        }
        log::configureFromEnv();
        if (!opts.logOut.empty()) {
            log::Level level = log::Level::Info;
            log::parseLevel(opts.logLevel, level);
            log::configure(opts.logOut, level);
        }

        // One Ctrl-C/SIGTERM stops every in-flight point
        // cooperatively; a second one kills the process the
        // old-fashioned way (the handler stays installed but the
        // token is already cancelled).
        std::signal(SIGPIPE, SIG_IGN);
        core::installInterruptHandlers();

        const double zero_load = Sweep::zeroLoadLatency(
            opts.network, opts.traffic, opts.sim);

        // Per-point telemetry export: the dir options imply the same
        // telemetry defaults --metrics-out/--trace-out do in
        // orion_sim. Telemetry stays off in parallel sweeps unless
        // explicitly requested here.
        SimConfig sim_cfg = opts.sim;
        if (!metrics_dir.empty()) {
            if (sim_cfg.telemetry.sampleInterval == 0)
                sim_cfg.telemetry.sampleInterval = 1000;
            std::filesystem::create_directories(metrics_dir);
        }
        if (!trace_dir.empty()) {
            sim_cfg.telemetry.traceEnabled = true;
            std::filesystem::create_directories(trace_dir);
        }

        // Checkpoint plumbing: the fingerprint binds the journal to
        // this exact configuration and grid; a mismatched --resume is
        // a structured error, never a silent mix of results.
        const std::uint64_t fingerprint = core::sweepFingerprint(
            opts.network, opts.traffic, sim_cfg, rates, seeds);
        std::vector<core::CheckpointEntry> resume_entries;
        std::unique_ptr<core::CheckpointJournal> journal;
        if (!resume_path.empty()) {
            core::CheckpointLoad load =
                core::loadCheckpoint(resume_path, fingerprint);
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
                                resume_path.c_str()),
                      {log::u64("cached", resume_entries.size()),
                       log::str("journal", resume_path)});
            journal = std::make_unique<core::CheckpointJournal>(
                resume_path, fingerprint, /*resume=*/true);
        } else if (!checkpoint_path.empty()) {
            journal = std::make_unique<core::CheckpointJournal>(
                checkpoint_path, fingerprint, /*resume=*/false);
        }
        const std::string journal_path =
            !resume_path.empty() ? resume_path : checkpoint_path;

        // Run manifest: explicit --manifest-out, or automatically
        // beside a checkpoint journal so long runs self-describe.
        std::string manifest_path = opts.manifestOut;
        if (manifest_path.empty() && !journal_path.empty())
            manifest_path = journal_path + ".manifest.json";
        core::RunManifest manifest =
            core::RunManifest::begin("orion_sweep");
        manifest.fingerprintHex = core::hex16(fingerprint);
        manifest.seed = sim_cfg.seed;
        manifest.seeds = seeds;
        manifest.ratePoints = rates.size();
        manifest.pointsTotal =
            static_cast<std::uint64_t>(rates.size()) * seeds;
        const auto writeManifest = [&](const char* reason) {
            if (manifest_path.empty())
                return;
            manifest.finish(reason);
            try {
                core::writeFileAtomic(manifest_path,
                                      manifest.toJson());
            } catch (const std::exception& e) {
                log::diag(log::Level::Warn, "sweep.manifest_failed",
                          log::strf("orion_sweep: cannot write "
                                    "manifest '%s': %s\n",
                                    manifest_path.c_str(), e.what()));
            }
        };

        // Live progress: heartbeat file and/or TTY progress line.
        std::unique_ptr<core::ProgressTracker> tracker;
        if (!heartbeat_path.empty() || progress_line) {
            core::ProgressTracker::Options po;
            po.heartbeatPath = heartbeat_path;
            po.heartbeatIntervalSeconds = heartbeat_interval;
            po.progressLine = progress_line;
            po.totalCells = manifest.pointsTotal;
            po.jobs = core::resolveJobs(opts.jobs);
            tracker = std::make_unique<core::ProgressTracker>(po);
        }
        log::event(log::Level::Info, "sweep.start",
                   {log::str("fingerprint", manifest.fingerprintHex),
                    log::u64("rate_points", rates.size()),
                    log::u64("seeds", seeds),
                    log::u64("cells", manifest.pointsTotal),
                    log::boolean("isolate", isolate),
                    log::u64("cached", resume_entries.size())});

        SweepOptions sweep_opts;
        sweep_opts.jobs = opts.jobs;
        sweep_opts.retry =
            RetryPolicy{opts.pointRetries, opts.pointBackoffMs};
        sweep_opts.pointTimeoutSeconds = opts.pointTimeoutSeconds;
        sweep_opts.cancel = &core::interruptToken();
        sweep_opts.journal = journal.get();
        sweep_opts.resume =
            resume_path.empty() ? nullptr : &resume_entries;
        sweep_opts.progress = tracker.get();
        if (isolate) {
            // Default worker: the orion_sim built next to this binary.
            sweep_opts.workerCommand.push_back(
                !isolate_exe.empty()
                    ? isolate_exe
                    : (std::filesystem::path(argv[0]).parent_path() /
                       "orion_sim")
                          .string());
            // Observability flags stay in the parent: workers would
            // otherwise race to overwrite one manifest file and pay
            // for per-cell phase profiles nobody collects.
            for (std::size_t f = 0; f < rest.size(); ++f) {
                const std::string& a = rest[f];
                if (a == "--log-out" || a == "--log-level" ||
                    a == "--manifest-out") {
                    ++f; // skip the flag's value too
                    continue;
                }
                if (a != "--profile-phases")
                    sweep_opts.workerCommand.push_back(a);
            }
            sweep_opts.workerMemBytes = isolate_mem_mb * 1024 * 1024;
            sweep_opts.workerCpuSeconds = isolate_cpu_s;
        }

        const std::vector<SweepPoint> cells =
            Sweep::overRates(opts.network, opts.traffic, sim_cfg, rates,
                             sweep_opts, seeds);
        if (tracker)
            tracker->finalize();
        manifest.pointsFromCheckpoint =
            tracker ? tracker->fromCheckpoint() : resume_entries.size();
        for (const SweepPoint& c : cells) {
            if (!c.ran)
                continue;
            if (c.failure)
                ++manifest.pointsFailed;
            else
                ++manifest.pointsCompleted;
        }
        // An interrupt means no CSV (a partial table masquerading as
        // a full sweep is worse than none): print the resume recipe
        // instead and exit 5.
        if (core::interruptToken().cancelled()) {
            writeManifest("interrupted");
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
            for (const std::string& dir : {metrics_dir, trace_dir}) {
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
            exportTo(metrics_dir, cells[c].metricsCsv, "csv");
            exportTo(trace_dir, cells[c].traceJson, "json");
        }

        writeManifest(manifest.pointsFailed > 0 ? "failed-points" : "ok");
        if (seeds == 1)
            printPoints(cells, resources_cols, zero_load);
        else
            printAveraged(cells, seeds, resources_cols, zero_load,
                          manifest.pointsFailed);
        core::flushStdout();
        // Failure isolation: every healthy point above still printed;
        // failed points carry their diagnosis and flip the exit code.
        return manifest.pointsFailed > 0 ? 3 : 0;
    } catch (const core::IoError& e) {
        log::diag(log::Level::Error, "sweep.io_error",
                  log::strf("orion_sweep: %s\n", e.what()));
        return 4;
    } catch (const std::exception& e) {
        log::diag(log::Level::Error, "sweep.error",
                  log::strf("%s\n", e.what()));
        return 1;
    }
}
