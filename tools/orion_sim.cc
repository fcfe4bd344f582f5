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
 * Exit codes (documented in docs/ROBUSTNESS.md):
 *   0  run completed (or hit the cycle cap without incident)
 *   1  usage error or unexpected exception
 *   2  run finished but a deadlock was suspected
 *   3  a runtime check failed (diagnostic on stderr)
 *   4  output I/O failure (--metrics-out / --trace-out / stdout;
 *      disk full, closed pipe...)
 *   5  interrupted by SIGINT/SIGTERM (stopped cooperatively)
 *   6  --point-timeout deadline expired (stopped cooperatively)
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/cancel.hh"
#include "core/checkpoint.hh"
#include "core/cli.hh"
#include "core/log.hh"
#include "core/manifest.hh"
#include "core/sweep.hh"

namespace {

namespace log = orion::core::log;

/** Attach the structured log sink: environment first, flags win. */
void
configureLogger(const orion::cli::Options& opts)
{
    log::configureFromEnv();
    if (!opts.logOut.empty()) {
        log::Level level = log::Level::Info;
        log::parseLevel(opts.logLevel, level);
        log::configure(opts.logOut, level);
    }
}

/** An output-stream failure (exit 4): the run itself was healthy, the
 * results could not be delivered. */
class IoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

void
writeFile(const std::string& path, const std::string& content)
{
    errno = 0;
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw IoError("orion_sim: cannot open '" + path +
                      "' for writing: " + std::strerror(errno));
    }
    out << content;
    out.flush();
    out.close();
    // badbit/failbit after flush+close covers ENOSPC, EPIPE on a
    // FIFO, quota errors... anything the kernel only reports on
    // write-back.
    if (!out) {
        throw IoError("orion_sim: i/o error writing '" + path +
                      "' (disk full or stream closed?)");
    }
}

} // namespace

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
        configureLogger(opts);

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

        const bool run_failed =
            report.stopReason == StopReason::CheckFailure ||
            report.stopReason == StopReason::Deadline ||
            report.stopReason == StopReason::Interrupted;
        manifest.pointsCompleted = run_failed ? 0 : 1;
        manifest.pointsFailed = run_failed ? 1 : 0;
        if (const core::PhaseProfiler* pp = simulation.phaseProfiler())
            manifest.phases = core::phaseShares(*pp);
        manifest.finish(stopReasonName(report.stopReason));
        if (!opts.manifestOut.empty())
            core::writeFileAtomic(opts.manifestOut, manifest.toJson());
        log::event(log::Level::Info, "sim.done",
                   {log::str("stop_reason",
                             stopReasonName(report.stopReason)),
                    log::u64("cycles", report.totalCycles),
                    log::num("latency_cycles",
                             report.avgLatencyCycles),
                    log::num("power_w", report.networkPowerWatts)});

        if (!opts.metricsOut.empty())
            writeFile(opts.metricsOut, simulation.metricsCsv());
        if (!opts.traceOut.empty())
            writeFile(opts.traceOut, simulation.traceJson("orion_sim"));
        if (!opts.reportOut.empty())
            writeFile(opts.reportOut, workerReportLine(simulation, report));

        const std::string out = opts.csv
                                    ? cli::formatCsvReport(opts, report)
                                    : cli::formatReport(opts, report);
        std::fputs(out.c_str(), stdout);
        if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
            log::diag(log::Level::Error, "sim.io_error",
                      "orion_sim: i/o error writing the report to "
                      "stdout\n");
            return 4;
        }
        switch (report.stopReason) {
        case StopReason::CheckFailure:
            log::diag(log::Level::Error, "sim.check_failure",
                      log::strf("orion_sim: check failure: %s\n",
                                report.checkFailureDiagnostic.c_str()));
            return 3;
        case StopReason::Interrupted:
            log::diag(log::Level::Warn, "sim.interrupted",
                      log::strf("orion_sim: interrupted (signal %d); "
                                "partial report above\n",
                                core::interruptSignal()));
            return 5;
        case StopReason::Deadline:
            log::diag(log::Level::Warn, "sim.deadline",
                      log::strf("orion_sim: --point-timeout expired "
                                "after %llu cycles; partial report "
                                "above\n",
                                static_cast<unsigned long long>(
                                    report.totalCycles)));
            return 6;
        default:
            return report.deadlockSuspected ? 2 : 0;
        }
    } catch (const IoError& e) {
        log::diag(log::Level::Error, "sim.io_error",
                  log::strf("%s\n", e.what()));
        return 4;
    } catch (const std::exception& e) {
        log::diag(log::Level::Error, "sim.error",
                  log::strf("%s\n", e.what()));
        return 1;
    }
}
