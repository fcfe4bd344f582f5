/**
 * @file
 * Why a run stopped and what that means (the stop table), plus the
 * text-table and CSV emission helpers used by the benchmark harnesses
 * to print the rows/series of the paper's tables and figures.
 */

#ifndef ORION_CORE_REPORT_HH
#define ORION_CORE_REPORT_HH

#include <string>
#include <vector>

namespace orion {

/**
 * Why a simulation run stopped — the failure taxonomy reports, sweeps,
 * and CLI exit codes are built on (see docs/ROBUSTNESS.md). What each
 * reason means to them is its row of the stop table (stopRule).
 */
enum class StopReason
{
    /** The measurement sample completed and drained. */
    Completed,
    /** The post-warmup cycle cap expired before the sample drained. */
    MaxCycles,
    /** The progress watchdog saw no flit motion with packets in
     * flight (deadlock or hard saturation). */
    WatchdogStall,
    /** An ORION_CHECK/ORION_AUDIT invariant fired mid-run. */
    CheckFailure,
    /** The runtime deadlock detector found a wait-for cycle it could
     * not break (victim poisoning failed or the recovery budget was
     * exhausted). Forensics carry the wait-for graph. */
    DeadlockUnrecovered,
    /** The per-point wall-clock deadline (--point-timeout) expired
     * and the run was cancelled cooperatively (base/cancel.hh). */
    Deadline,
    /** The process was interrupted (SIGINT/SIGTERM) and the run was
     * cancelled cooperatively mid-protocol. */
    Interrupted,
    /** An isolated worker subprocess (--isolate) died — crashed,
     * was killed by its resource limits, or exceeded its deadline
     * hard enough to need SIGKILL. Forensics carry the exit status
     * or signal. */
    WorkerCrash,
};

/** What one StopReason means to everything that reads it: the sweep
 * engine, the checkpoint journal, orion_sim's exit code and the
 * --isolate parent. */
struct StopRule
{
    const char* name; ///< stable lower-case name (CSV status, logs)
    bool failed;      ///< a sweep cell that stops this way failed
    bool retried;     ///< such a cell gets a second attempt (transient)
    bool journaled;   ///< a function of (config, seed): journal keeps it
    int exitCode;     ///< orion_sim's exit status; --isolate checks it
};

/** The stop table's row for @p reason. */
const StopRule& stopRule(StopReason reason);

/** stopRule(@p reason).name: "completed", "max-cycles", ... */
inline const char*
stopReasonName(StopReason reason)
{
    return stopRule(reason).name;
}

} // namespace orion

namespace orion::report {

/** A table: a header row plus data rows of equal arity. */
struct Table
{
    std::string title;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;

    void addRow(std::vector<std::string> row);
};

/** Render @p table as an aligned, boxed text table. */
std::string formatTable(const Table& table);

/** Render @p table as CSV (header row first). */
std::string formatCsv(const Table& table);

/** Fixed-precision double formatting. */
std::string fmt(double v, int precision = 3);

/** Engineering formatting with a unit (e.g. 1.23e-12 -> "1.23 pJ"). */
std::string fmtEng(double v, const char* unit, int precision = 3);

} // namespace orion::report

#endif // ORION_CORE_REPORT_HH
