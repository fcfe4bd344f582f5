/**
 * @file
 * orion_sim — the command-line simulator driver.
 *
 * Builds a network from presets and/or individual options, runs the
 * paper's warm-up/sample/drain protocol, and prints the
 * power-performance report (text or CSV). Examples:
 *
 *   orion_sim --preset vc64 --rate 0.10
 *   orion_sim --dims 8x8 --vcs 4 --buffer 8 --deadlock bubble \
 *             --pattern hotspot --hotspot 27 --rate 0.03 --csv
 *   orion_sim --preset cb --pattern trace --trace workload.txt
 *
 * Exit codes (documented in docs/ROBUSTNESS.md): a run that stopped
 * exits with its stop reason's code in the stop table (core/report.hh):
 *   0  run completed (or hit the cycle cap without incident)
 *   2  run finished but a deadlock was suspected
 *   3  a runtime check failed (diagnostic on stderr)
 *   5  interrupted by SIGINT/SIGTERM (stopped cooperatively)
 *   6  --point-timeout deadline expired (stopped cooperatively)
 * and one that did not:
 *   1  usage error, unreadable input or unexpected exception
 *   4  output I/O failure (--log-out / --manifest-out / --metrics-out
 *      / --trace-out / stdout; disk full, closed pipe...)
 */

#include <csignal>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/cancel.hh"
#include "core/checkpoint.hh"
#include "core/cli.hh"
#include "core/log.hh"
#include "core/manifest.hh"
#include "core/sweep.hh"

namespace log = orion::core::log;

int
main(int argc, char** argv)
{
    using namespace orion;

    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        cli::Options opts = cli::parse(args);
        if (opts.helpRequested) {
            std::fputs(cli::usage().c_str(), stdout);
            return 0;
        }
        cli::configureLogger(opts);

        core::RunManifest manifest =
            core::RunManifest::begin("orion_sim");
        manifest.fingerprintHex = core::hex16(core::sweepFingerprint(
            opts.network, opts.traffic, opts.sim,
            {opts.traffic.injectionRate}, 1));
        manifest.seed = opts.sim.seed;
        manifest.pointsTotal = 1;
        log::event(log::Level::Info, "sim.start",
                   {log::str("fingerprint", manifest.fingerprintHex),
                    log::u64("seed", opts.sim.seed),
                    log::num("rate", opts.traffic.injectionRate)});

        // A closed downstream pipe must surface as a write error
        // (exit 4), not a silent SIGPIPE death.
        std::signal(SIGPIPE, SIG_IGN);
        core::installInterruptHandlers();
        core::CancelToken token(&core::interruptToken());
        if (opts.pointTimeoutSeconds > 0.0)
            token.armDeadline(opts.pointTimeoutSeconds);
        opts.sim.cancel = &token;

        Simulation simulation(opts.network, opts.traffic, opts.sim);
        const Report report = simulation.run();

        const bool failed = stopRule(report.stopReason).failed;
        manifest.pointsCompleted = failed ? 0 : 1;
        manifest.pointsFailed = failed ? 1 : 0;
        // The manifest's metrics: the phase gauges, when profiling.
        telemetry::MetricsRegistry phases;
        if (const core::PhaseProfiler* pp = simulation.phaseProfiler())
            telemetry::registerPhaseMetrics(phases, *pp);
        manifest.finish(stopReasonName(report.stopReason));
        if (!opts.manifestOut.empty())
            core::writeFileAtomic(opts.manifestOut,
                                  manifest.toJson(phases));
        log::event(log::Level::Info, "sim.done",
                   {log::str("stop_reason",
                             stopReasonName(report.stopReason)),
                    log::u64("cycles", report.totalCycles),
                    log::num("latency_cycles",
                             report.avgLatencyCycles),
                    log::num("power_w", report.networkPowerWatts)});

        if (!opts.metricsOut.empty())
            core::writeFile(opts.metricsOut, simulation.metricsCsv());
        if (!opts.traceOut.empty())
            core::writeFile(opts.traceOut,
                            simulation.traceJson("orion_sim"));
        if (!opts.reportOut.empty())
            core::writeFile(opts.reportOut,
                            workerReportLine(simulation, report));

        const std::string out = opts.csv
                                    ? cli::formatCsvReport(opts, report)
                                    : cli::formatReport(opts, report);
        std::fputs(out.c_str(), stdout);
        core::flushStdout();
        if (report.stopReason == StopReason::CheckFailure) {
            log::diag(log::Level::Error, "sim.check_failure",
                      log::strf("orion_sim: check failure: %s\n",
                                report.checkFailureDiagnostic.c_str()));
        } else if (report.stopReason == StopReason::Interrupted) {
            log::diag(log::Level::Warn, "sim.interrupted",
                      log::strf("orion_sim: interrupted (signal %d); "
                                "partial report above\n",
                                core::interruptSignal()));
        } else if (report.stopReason == StopReason::Deadline) {
            log::diag(log::Level::Warn, "sim.deadline",
                      log::strf("orion_sim: --point-timeout expired "
                                "after %llu cycles; partial report "
                                "above\n",
                                static_cast<unsigned long long>(
                                    report.totalCycles)));
        }
        return stopRule(report.stopReason).exitCode;
    } catch (const core::IoError& e) {
        log::diag(log::Level::Error, "sim.io_error",
                  log::strf("orion_sim: %s\n", e.what()));
        return 4;
    } catch (const std::invalid_argument& e) {
        // cli::parse's usage errors carry the tool prefix already.
        log::diag(log::Level::Error, "sim.error",
                  log::strf("%s\n", e.what()));
        return 1;
    } catch (const std::exception& e) {
        log::diag(log::Level::Error, "sim.error",
                  log::strf("orion_sim: %s\n", e.what()));
        return 1;
    }
}
