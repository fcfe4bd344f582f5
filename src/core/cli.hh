/**
 * @file
 * Command-line front end of orion_sim and orion_sweep. One table in
 * cli.cc declares every flag once (value placeholder, --help line and
 * group, the tools that take it, the code that checks and stores its
 * value), and parse(), usage() and workerArgs() all read it, so each
 * tool accepts exactly the flags its --help lists. Library code, so
 * it is unit-testable.
 */

#ifndef ORION_CORE_CLI_HH
#define ORION_CORE_CLI_HH

#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/simulation.hh"
#include "core/sweep.hh"

namespace orion::cli {

/** The tools that read the flag table. */
enum class Tool
{
    Sim,   ///< orion_sim: one run
    Sweep, ///< orion_sweep: a grid of rates x seeds
};

/**
 * Everything a parsed command line describes. Each field below the
 * configs holds the flag its comment names (`TOOL --help` says what
 * the flag does); a tool that does not take the flag leaves the
 * default.
 */
struct Options
{
    NetworkConfig network = NetworkConfig::vc16();
    TrafficConfig traffic;
    SimConfig sim;

    // orion_sim's flags.
    bool csv = false;       ///< --csv
    bool breakdown = false; ///< --breakdown
    std::string metricsOut; ///< --metrics-out (empty = none)
    std::string traceOut;   ///< --trace-out (empty = none)
    /** --report-out: the report as an exact checkpoint entry line, for
     * `orion_sweep --isolate` to merge bit-identically. */
    std::string reportOut;

    // Flags both tools take.
    /** --point-timeout: wall-clock seconds per run / sweep cell (<= 0
     * disables); overruns stop cooperatively with StopReason::Deadline. */
    double pointTimeoutSeconds = 0.0;
    /** --log-out (empty = stderr diagnostics only, byte-identical to
     * builds without the logger). */
    std::string logOut;
    std::string logLevel = "info"; ///< --log-level
    /** --manifest-out (core/manifest.hh); a journaling orion_sweep
     * defaults it to JOURNAL.manifest.json. */
    std::string manifestOut;

    // orion_sweep's flags.
    /** --jobs: 0 = hardware concurrency; results are identical for
     * every value (SweepOptions::jobs). */
    unsigned jobs = 0;
    /** --rates */
    std::vector<double> rates = Sweep::linspace(0.01, 0.20, 10);
    unsigned seeds = 1;                    ///< --seeds
    std::string metricsDir;                ///< --metrics-dir
    std::string traceDir;                  ///< --trace-dir
    std::string checkpoint;                ///< --checkpoint
    std::string resume;                    ///< --resume
    bool isolate = false;                  ///< --isolate
    std::string isolateExe;                ///< --isolate-exe
    std::uint64_t isolateMemMb = 0;        ///< --isolate-mem (MiB)
    std::uint64_t isolateCpuSeconds = 0;   ///< --isolate-cpu
    bool progress = false;                 ///< --progress
    bool resources = false;                ///< --resources

    /** --help was requested: print usage() and exit successfully. */
    bool helpRequested = false;
};

/**
 * Parse @p args (without argv[0]) as @p tool's command line. Throws
 * std::invalid_argument, prefixed "TOOL: ", on a flag @p tool does
 * not take, a malformed value, values that do not compose into a
 * valid run or sweep, a flag whose output is not asked for, or two
 * flags that name one file. --help stops parsing where it appears.
 */
Options parse(const std::vector<std::string>& args, Tool tool = Tool::Sim);

/** @p tool's --help text, generated from the flag table by group. */
std::string usage(Tool tool = Tool::Sim);

/**
 * What `orion_sweep --isolate` hands every orion_sim worker: the flags
 * of @p args (a command line parse() accepted for orion_sweep), with
 * their values, that describe one cell (the values sweepFingerprint
 * binds), plus --point-timeout. Output and observability flags stay
 * with the parent, so workers never race on one file.
 */
std::vector<std::string> workerArgs(const std::vector<std::string>& args);

/** Attach the structured log sink that --log-out and --log-level
 * describe, if any. */
void configureLogger(const Options& opts);

/// @name Checked option values
/// The parsers behind parse(), for other front ends. Each throws
/// std::invalid_argument ("OPT: not a number: 'V'", ...) on a value
/// that is not wholly a number in range.
/// @{
/** A non-negative integer no greater than @p max. */
unsigned long long parseU64(const std::string& opt, const std::string& v,
                            unsigned long long max = ULLONG_MAX);

/** A finite double (no nan or inf). */
double parseDouble(const std::string& opt, const std::string& v);
/// @}

/** Render @p report as the human-readable run summary. */
std::string formatReport(const Options& opts, const Report& report);

/** Render @p report as one CSV header + one data row. */
std::string formatCsvReport(const Options& opts, const Report& report);

/** Most cells (rates x seeds) one orion_sweep grid may hold: a sweep
 * keeps every cell's report in memory until it prints. */
constexpr unsigned long long kMaxSweepCells = 100000;

/**
 * Parse a "FIRST:LAST:COUNT" rate-sweep specification into evenly
 * spaced rates, 0 < FIRST <= LAST <= 1 and 2 <= COUNT <=
 * kMaxSweepCells. Throws std::invalid_argument otherwise.
 */
std::vector<double> parseRateSpec(const std::string& spec);

} // namespace orion::cli

#endif // ORION_CORE_CLI_HH
