/**
 * @file
 * Command-line front end: turns argv-style options into a validated
 * (NetworkConfig, TrafficConfig, SimConfig) triple and renders run
 * reports. Lives in the library (rather than the tool's main) so the
 * parsing logic is unit-testable. usage() lists every option.
 */

#ifndef ORION_CORE_CLI_HH
#define ORION_CORE_CLI_HH

#include <climits>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/simulation.hh"

namespace orion::cli {

/** Everything a parsed command line describes. */
struct Options
{
    NetworkConfig network = NetworkConfig::vc16();
    TrafficConfig traffic;
    SimConfig sim;
    /** Emit machine-readable CSV instead of the text report. */
    bool csv = false;
    /** Worker threads for sweep drivers (--jobs): 0 = hardware
     * concurrency (the default), 1 = serial. Results are identical
     * for every value; see SweepOptions::jobs. */
    unsigned jobs = 0;
    /** Append the per-node power map and event counts (text mode). */
    bool breakdown = false;
    /** Write the sampled metric time series here (--metrics-out;
     * empty = don't). Implies a default --sample-interval of 1000
     * cycles when none was given. */
    std::string metricsOut;
    /** Write the Chrome trace-event JSON here (--trace-out; empty =
     * don't). */
    std::string traceOut;
    /**
     * Wall-clock deadline in seconds for a run / each sweep point
     * (--point-timeout; <= 0 disables). Overruns stop cooperatively
     * with StopReason::Deadline. See docs/ROBUSTNESS.md.
     */
    double pointTimeoutSeconds = 0.0;
    /** Attempts per sweep cell before it is declared failed
     * (--point-retries, >= 1; default: the historical 2). */
    unsigned pointRetries = 2;
    /** Milliseconds slept before each retry (--point-backoff-ms). */
    unsigned pointBackoffMs = 0;
    /**
     * Write the run report here in the checkpoint entry line format
     * (--report-out; empty = don't): exact hexfloat doubles, so a
     * parent process (orion_sweep --isolate) can merge it
     * bit-identically with in-process results.
     */
    std::string reportOut;
    /**
     * Structured JSON-lines log sink (--log-out; empty = stderr-only
     * diagnostics, byte-identical to builds without the logger). Also
     * settable via the ORION_LOG environment variable; the flag wins.
     */
    std::string logOut;
    /** Minimum level written to the log sink (--log-level
     * debug|info|warn|error; default info). */
    std::string logLevel = "info";
    /** Write the run manifest JSON here (--manifest-out; empty =
     * don't). See core/manifest.hh for the schema. */
    std::string manifestOut;
    /** --help was requested: print usage() and exit successfully. */
    bool helpRequested = false;
};

/**
 * Parse @p args (without argv[0]). Throws std::invalid_argument with
 * a user-facing message, prefixed "@p tool: ", on unknown options or
 * malformed values.
 */
Options parse(const std::vector<std::string>& args,
              const std::string& tool = "orion_sim");

/// @name Checked option values
/// The parsers behind parse(), for tools' own options. Each throws
/// std::invalid_argument ("OPT: not a number: 'V'", ...) on a value
/// that is not wholly a number in range.
/// @{
/** A non-negative integer no greater than @p max. */
unsigned long long parseU64(const std::string& opt, const std::string& v,
                            unsigned long long max = ULLONG_MAX);

/** A finite double (no nan or inf). */
double parseDouble(const std::string& opt, const std::string& v);
/// @}

/** The usage/help text. */
std::string usage();

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
