/**
 * @file
 * orion_sweep — injection-rate sweep driver.
 *
 * Runs the same configuration across a range of injection rates and
 * emits one CSV row per point (the series behind latency/power vs.
 * load figures), plus the measured zero-load latency and the paper's
 * 2x-zero-load saturation point. Accepts all orion_sim options, plus:
 *
 *   --rates FIRST:LAST:COUNT   evenly spaced rates (default
 *                              0.01:0.20:10)
 *   --seeds N                  average each point over N seeds and
 *                              report the latency spread
 *   --metrics-dir DIR          write each point's sampled time series
 *                              to DIR/point_NNN.csv (with --seeds N>1:
 *                              DIR/seed_K/point_NNN.csv per seed)
 *   --trace-dir DIR            write each point's Chrome trace JSON
 *                              to DIR/point_NNN.json (per-seed
 *                              subdirectories with --seeds N>1)
 *   --checkpoint FILE          journal each finished cell to FILE
 *   --resume FILE              skip cells already journaled in FILE
 *                              (and keep appending to it); the merged
 *                              CSV is byte-identical to an
 *                              uninterrupted run at any --jobs
 *   --isolate                  run each point in a fork/exec'd
 *                              orion_sim subprocess: a crash, OOM, or
 *                              wedge is one structured failed row,
 *                              never a dead sweep
 *   --isolate-exe PATH         the orion_sim binary (default: next to
 *                              this binary)
 *   --isolate-mem MB           worker RLIMIT_AS cap in MiB
 *   --isolate-cpu SEC          worker RLIMIT_CPU cap in seconds
 *
 * Exit codes: 0 ok; 1 usage error or unexpected exception; 3 one or
 * more points failed (rows for healthy points still printed); 5
 * interrupted by SIGINT/SIGTERM (no CSV; a resume hint is printed
 * when journaling). See docs/ROBUSTNESS.md.
 *
 * Example:
 *   orion_sweep --preset vc64 --rates 0.02:0.18:9 --seeds 3 > vc64.csv
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.hh"
#include "core/checkpoint.hh"
#include "core/cli.hh"
#include "core/log.hh"
#include "core/manifest.hh"
#include "core/progress.hh"
#include "core/report.hh"
#include "core/sweep.hh"

using namespace orion;

namespace {

namespace log = core::log;

/** CSV cell for an optional resource value ("" when unmeasured). */
std::string
resourceCell(bool valid, double seconds)
{
    return valid ? report::fmt(seconds, 3) : std::string{};
}

/** DIR/point_NNN.EXT for sweep point @p i. */
std::string
pointPath(const std::string& dir, std::size_t i, const char* ext)
{
    char name[32];
    std::snprintf(name, sizeof name, "point_%03zu.%s", i, ext);
    return (std::filesystem::path(dir) / name).string();
}

/** DIR/seed_K for seed @p k of a multi-seed sweep. */
std::string
seedDir(const std::string& dir, unsigned k)
{
    char name[24];
    std::snprintf(name, sizeof name, "seed_%u", k);
    return (std::filesystem::path(dir) / name).string();
}

void
writeFile(const std::string& path, const std::string& content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("orion_sweep: cannot open '" + path +
                                 "' for writing");
    out << content;
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
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--isolate") {
            isolate = true;
            continue;
        }
        if (args[i] == "--progress") {
            progress_line = true;
            continue;
        }
        if (args[i] == "--resources") {
            resources_cols = true;
            continue;
        }
        if (args[i] == "--rates" || args[i] == "--seeds" ||
            args[i] == "--metrics-dir" || args[i] == "--trace-dir" ||
            args[i] == "--checkpoint" || args[i] == "--resume" ||
            args[i] == "--isolate-exe" ||
            args[i] == "--isolate-mem" || args[i] == "--isolate-cpu" ||
            args[i] == "--heartbeat" ||
            args[i] == "--heartbeat-interval") {
            const std::string opt = args[i];
            if (i + 1 >= args.size()) {
                log::diag(log::Level::Error, "sweep.usage",
                          log::strf("orion_sweep: %s: missing value\n",
                                    opt.c_str()));
                return 1;
            }
            try {
                if (opt == "--rates")
                    rates = cli::parseRateSpec(args[++i]);
                else if (opt == "--seeds")
                    seeds = static_cast<unsigned>(
                        std::stoul(args[++i]));
                else if (opt == "--metrics-dir")
                    metrics_dir = args[++i];
                else if (opt == "--trace-dir")
                    trace_dir = args[++i];
                else if (opt == "--checkpoint")
                    checkpoint_path = args[++i];
                else if (opt == "--resume")
                    resume_path = args[++i];
                else if (opt == "--isolate-exe")
                    isolate_exe = args[++i];
                else if (opt == "--isolate-mem")
                    isolate_mem_mb = std::stoull(args[++i]);
                else if (opt == "--heartbeat")
                    heartbeat_path = args[++i];
                else if (opt == "--heartbeat-interval")
                    heartbeat_interval = std::stod(args[++i]);
                else
                    isolate_cpu_s = std::stoull(args[++i]);
            } catch (const std::exception& e) {
                log::diag(log::Level::Error, "sweep.usage",
                          log::strf("orion_sweep: bad %s: %s\n",
                                    opt.c_str(), e.what()));
                return 1;
            }
        } else {
            rest.push_back(args[i]);
        }
    }
    if (seeds < 1) {
        log::diag(log::Level::Error, "sweep.usage",
                  "orion_sweep: --seeds must be >= 1\n");
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
    if (isolate && seeds > 1) {
        log::diag(log::Level::Error, "sweep.usage",
                  "orion_sweep: --isolate supports --seeds 1 "
                  "only\n");
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
        const cli::Options opts = cli::parse(rest);
        if (opts.helpRequested) {
            std::fputs(cli::usage().c_str(), stdout);
            std::fputs("\nsweep:\n  --rates FIRST:LAST:COUNT   "
                       "evenly spaced rates (default 0.01:0.20:10)\n"
                       "  --seeds N                  average each point "
                       "over N seeds\n"
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
            po.totalCells =
                static_cast<std::uint64_t>(rates.size()) * seeds;
            po.jobs = opts.jobs != 0
                          ? opts.jobs
                          : std::max(
                                1u,
                                std::thread::hardware_concurrency());
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

        // After any sweep: an interrupt means no CSV (a partial
        // table masquerading as a full sweep is worse than none) —
        // print the resume recipe instead and exit 5.
        const auto interruptedEpilogue = [&]() -> int {
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
        };

        if (seeds > 1) {
            const auto points = Sweep::overRatesAveraged(
                opts.network, opts.traffic, sim_cfg, rates, seeds,
                sweep_opts);
            if (tracker)
                tracker->finalize();
            manifest.pointsFromCheckpoint =
                tracker ? tracker->fromCheckpoint()
                        : resume_entries.size();
            for (const auto& p : points) {
                manifest.pointsCompleted += p.ranSeeds - p.failedSeeds;
                manifest.pointsFailed += p.failedSeeds;
            }
            if (core::interruptToken().cancelled())
                return interruptedEpilogue();

            // Multi-seed telemetry lands in per-seed subdirectories:
            // DIR/seed_K/point_NNN.{csv,json} (failed seeds captured
            // nothing and are skipped).
            for (unsigned k = 0; k < seeds; ++k) {
                if (!metrics_dir.empty())
                    std::filesystem::create_directories(
                        seedDir(metrics_dir, k));
                if (!trace_dir.empty())
                    std::filesystem::create_directories(
                        seedDir(trace_dir, k));
            }
            for (std::size_t i = 0; i < points.size(); ++i) {
                const auto& p = points[i];
                for (unsigned k = 0; k < seeds; ++k) {
                    if (!metrics_dir.empty() &&
                        !p.metricsCsvBySeed[k].empty()) {
                        writeFile(pointPath(seedDir(metrics_dir, k),
                                            i, "csv"),
                                  p.metricsCsvBySeed[k]);
                    }
                    if (!trace_dir.empty() &&
                        !p.traceJsonBySeed[k].empty()) {
                        writeFile(pointPath(seedDir(trace_dir, k), i,
                                            "json"),
                                  p.traceJsonBySeed[k]);
                    }
                }
            }
            report::Table t;
            t.headers = {"rate",        "completed",   "latency_mean",
                         "latency_min", "latency_max", "throughput",
                         "power_w",     "failed_seeds", "attempts"};
            if (resources_cols) {
                t.headers.insert(t.headers.end(),
                                 {"wall_s", "cpu_s", "maxrss_kb"});
            }
            unsigned failed = 0;
            for (const auto& p : points) {
                failed += p.failedSeeds;
                unsigned attempts = 0;
                for (unsigned a : p.attemptsBySeed)
                    attempts += a;
                std::vector<std::string> row{
                    report::fmt(p.injectionRate, 4),
                    p.allCompleted ? "1" : "0",
                    report::fmt(p.meanLatency, 3),
                    report::fmt(p.minLatency, 3),
                    report::fmt(p.maxLatency, 3),
                    report::fmt(p.meanThroughput, 4),
                    report::fmt(p.meanPowerWatts, 4),
                    std::to_string(p.failedSeeds),
                    std::to_string(attempts),
                };
                if (resources_cols) {
                    const PointResources& rs = p.resources;
                    row.push_back(
                        resourceCell(rs.valid, rs.wallSeconds));
                    row.push_back(
                        resourceCell(rs.valid, rs.cpuSeconds));
                    row.push_back(rs.valid
                                      ? std::to_string(rs.maxRssKb)
                                      : std::string{});
                }
                t.addRow(std::move(row));
            }
            writeManifest(failed > 0 ? "failed-points" : "ok");
            std::fputs(report::formatCsv(t).c_str(), stdout);
            log::diag(log::Level::Info, "sweep.done",
                      log::strf("# zero-load latency: %.2f cycles; "
                                "%u seeds per point\n",
                                zero_load, seeds),
                      {log::u64("failed_seeds", failed)});
            if (failed > 0) {
                for (const auto& p : points) {
                    if (p.failedSeeds == 0)
                        continue;
                    log::diag(
                        log::Level::Error, "sweep.point_failed",
                        log::strf("orion_sweep: rate %.4f: %u of %u "
                                  "seeds failed: %s\n",
                                  p.injectionRate, p.failedSeeds,
                                  p.seeds, p.firstFailure.c_str()));
                }
                return 3;
            }
            return 0;
        }

        const std::vector<SweepPoint> points = Sweep::overRates(
            opts.network, opts.traffic, sim_cfg, rates, sweep_opts);
        if (tracker)
            tracker->finalize();
        manifest.pointsFromCheckpoint =
            tracker ? tracker->fromCheckpoint() : resume_entries.size();
        for (const auto& p : points) {
            if (!p.ran)
                continue;
            if (p.failure)
                ++manifest.pointsFailed;
            else
                ++manifest.pointsCompleted;
        }
        if (core::interruptToken().cancelled())
            return interruptedEpilogue();

        for (std::size_t i = 0; i < points.size(); ++i) {
            if (!metrics_dir.empty())
                writeFile(pointPath(metrics_dir, i, "csv"),
                          points[i].metricsCsv);
            if (!trace_dir.empty())
                writeFile(pointPath(trace_dir, i, "json"),
                          points[i].traceJson);
        }

        report::Table t;
        t.headers = {"rate",    "completed", "latency", "p95",
                     "throughput", "power_w", "buffer_w", "crossbar_w",
                     "arbiter_w",  "link_w",  "status",   "attempts"};
        if (resources_cols) {
            t.headers.insert(t.headers.end(),
                             {"wall_s", "cpu_s", "maxrss_kb"});
        }
        for (const auto& p : points) {
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
            if (resources_cols) {
                const PointResources& rs = p.resources;
                row.push_back(resourceCell(rs.valid, rs.wallSeconds));
                row.push_back(resourceCell(rs.valid, rs.cpuSeconds));
                row.push_back(rs.valid ? std::to_string(rs.maxRssKb)
                                       : std::string{});
            }
            t.addRow(std::move(row));
        }
        bool any_failed = false;
        for (const auto& p : points)
            any_failed = any_failed || p.failure.has_value();
        writeManifest(any_failed ? "failed-points" : "ok");
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

        // Failure isolation: every healthy point above still printed;
        // failed points carry their diagnosis (and forensics on
        // stderr) and flip the exit code.
        for (const auto& p : points) {
            if (!p.failure)
                continue;
            log::diag(log::Level::Error, "sweep.point_failed",
                      log::strf("orion_sweep: rate %.4f failed (%s): "
                                "%s\n",
                                p.injectionRate,
                                stopReasonName(p.failure->reason),
                                p.failure->message.c_str()),
                      {log::num("rate", p.injectionRate),
                       log::str("reason",
                                stopReasonName(p.failure->reason))});
            if (!p.failure->forensicsJson.empty())
                log::rawStderr(p.failure->forensicsJson);
        }
        return any_failed ? 3 : 0;
    } catch (const std::exception& e) {
        log::diag(log::Level::Error, "sweep.error",
                  log::strf("%s\n", e.what()));
        return 1;
    }
}
