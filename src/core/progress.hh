/**
 * @file
 * Live sweep progress: the run manifest kept current, ETA, stall
 * warnings and a rewriting terminal progress line
 * (docs/OBSERVABILITY.md, "Run manifest").
 *
 * A ProgressTracker rides alongside Sweep::overRates and
 * the isolated worker loop. Workers open a ProgressScope per cell;
 * the scope claims one of `jobs` slots whose fields are plain atomics,
 * so the per-cycle cost of liveness is one relaxed store every few
 * thousand cycles (wired through SimConfig::progressCycles) and the
 * simulation's results remain bit-identical — the tracker only ever
 * *observes* workers.
 *
 * Completion flows back through endCell(): counts, an EMA of point
 * wall times (the ETA source) and a sample list (median, for stall
 * detection) update under an annotated mutex, and the call wakes a
 * background thread. While the run lasts that thread is the only
 * writer of the run's manifest (core/manifest.hh): it replaces the
 * file atomically (tmp + rename, same crash discipline as the
 * checkpoint journal) after each wake and every second, so a reader
 * — tools/orion_status.py — never sees a torn file, even after
 * SIGKILL, and cells never wait on its fsyncs; the cells that finish
 * during one write share the next. The thread also emits stall
 * warnings through the structured logger when a cell runs longer than
 * 4x the median point time (and at least 5 s; needs >= 5 completed
 * points).
 *
 * Cells satisfied from a checkpoint journal are reported via
 * noteCached() so resumed runs show honest done/total counts.
 */
#ifndef ORION_CORE_PROGRESS_HH
#define ORION_CORE_PROGRESS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/annotations.hh"
#include "core/manifest.hh"
#include "core/sync.hh"

namespace orion::core {

class ProgressTracker
{
  public:
    struct Options
    {
        /// The run manifest's path; empty writes no file.
        std::string manifestPath;
        /** The run's manifest from RunManifest::begin(), with the
         * grid filled in: its pointsTotal and jobs size the sweep.
         * The tracker fills in the counts and the live keys. */
        RunManifest manifest;
        /** Seconds between refreshes of the manifest and the line;
         * 0 keeps the tracker's own period of one second. Tests set
         * a faster or a slower one. */
        double intervalSeconds = 0.0;
        /// Rewriting stderr progress line. Forced off when stderr is
        /// not a TTY, so piped/redirected runs stay byte-identical.
        bool progressLine = false;
    };

    /** Writes the manifest once when it has a path.
     * @throw IoError when that write fails. */
    explicit ProgressTracker(Options opts);
    /** Stops the background thread; writes nothing. */
    ~ProgressTracker();

    ProgressTracker(const ProgressTracker&) = delete;
    ProgressTracker& operator=(const ProgressTracker&) = delete;

    /// @name Worker API (thread-safe)
    /// @{

    /** Claim a slot for a cell; returns the slot index. */
    unsigned beginCell(std::uint64_t rateIndex, unsigned seedIndex)
        ORION_EXCLUDES(mutex_);

    /// Record a retry on an in-flight cell.
    void setAttempt(unsigned slot, unsigned attempt);

    /** Live cycle counter for the slot (plumb into
     * SimConfig::progressCycles), or null when no manifest or line
     * shows it. Valid until endCell(). */
    std::atomic<std::uint64_t>* cycleCounter(unsigned slot);

    /** Release the slot, record the outcome and wake the thread that
     * rewrites the manifest. Call it after the cell's journal append,
     * so the manifest never counts a cell the journal lacks. */
    void endCell(unsigned slot, bool failed, double wallSeconds)
        ORION_EXCLUDES(mutex_);

    /** Count a cell satisfied from a checkpoint journal (no wall-time
     * sample; it costs nothing in this run). */
    void noteCached(bool failed) ORION_EXCLUDES(mutex_);

    /// @}

    /** Stamp the stop reason and the run's cost, stop the background
     * thread, clear the progress line and write the final manifest.
     * @throw IoError when that write fails: the run lost an output. */
    void finish(const std::string& stopReason) ORION_EXCLUDES(mutex_);

    /** The manifest as the file would hold it now: counts, estimates
     * (kUnknown until a cell finishes) and the cells in flight. */
    RunManifest snapshot() const ORION_EXCLUDES(mutex_);

  private:
    struct Slot
    {
        std::atomic<bool> active{false};
        std::atomic<std::uint64_t> rateIndex{0};
        std::atomic<std::uint32_t> seedIndex{0};
        std::atomic<std::uint32_t> attempt{1};
        std::atomic<std::uint64_t> cycles{0};
        /// Seconds since tracker start (monotonic), for running_s.
        std::atomic<double> startSeconds{0.0};
        std::atomic<bool> stallWarned{false};
    };

    double secondsSinceStart() const;
    RunManifest snapshotLocked() const ORION_REQUIRES(mutex_);
    void stop() ORION_EXCLUDES(mutex_);
    void rewrite() ORION_EXCLUDES(mutex_);
    void renderProgressLine() ORION_EXCLUDES(mutex_);
    double etaSecondsLocked() const ORION_REQUIRES(mutex_);
    double medianPointSecondsLocked() const ORION_REQUIRES(mutex_);
    void checkStalls() ORION_EXCLUDES(mutex_);
    void threadMain();

    const Options opts_;
    const bool tty_;  ///< stderr is a TTY (line allowed)
    const bool live_; ///< a manifest or line shows the sweep as it runs
    // Fixed-size slot array; elements are atomics mutated lock-free by
    // their owning worker and read by the refresh thread.
    std::vector<Slot> slots_; // lint-allow: unguarded -- fixed-size array of lock-free atomics
    // Joined exactly once by stop(); never touched concurrently.
    std::thread thread_; // lint-allow: unguarded -- ctor/stop only
    // Monotonic base for secondsSinceStart(); set once in the ctor.
    double steadyBase_ = 0.0; // lint-allow: unguarded -- written once before the thread starts
    // Only the refresh thread's rewrite() reads or sets it.
    bool rewritesFailed_ = false; // lint-allow: unguarded -- refresh thread only

    mutable core::Mutex mutex_;
    CondVar wake_;
    bool stop_ ORION_GUARDED_BY(mutex_) = false;
    /// A cell finished since the thread last woke: rewrite now.
    bool changed_ ORION_GUARDED_BY(mutex_) = false;
    bool lineDrawn_ ORION_GUARDED_BY(mutex_) = false;
    std::uint64_t done_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t failed_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t cached_ ORION_GUARDED_BY(mutex_) = 0;
    double emaPointSeconds_ ORION_GUARDED_BY(mutex_) = 0.0;
    std::vector<double> pointSeconds_ ORION_GUARDED_BY(mutex_);
};

/**
 * RAII view of one cell's lifetime against an optional tracker.
 * Null-tracker scopes cost nothing, so sweep code threads one through
 * unconditionally. The caller times the cell and hands the wall time
 * to end(). Destruction without end() reports a failed cell
 * (exception escape) with no wall-time sample.
 */
class ProgressScope
{
  public:
    ProgressScope(ProgressTracker* tracker, std::uint64_t rateIndex,
                  unsigned seedIndex);
    ~ProgressScope();

    ProgressScope(const ProgressScope&) = delete;
    ProgressScope& operator=(const ProgressScope&) = delete;

    void setAttempt(unsigned attempt);
    /// Null when no tracker is attached.
    std::atomic<std::uint64_t>* cycles();
    /** Release the slot: the cell took @p wallSeconds (negative:
     * unknown, no sample). */
    void end(bool failed, double wallSeconds);

  private:
    ProgressTracker* tracker_;
    unsigned slot_ = 0;
    bool ended_ = false;
};

} // namespace orion::core

#endif // ORION_CORE_PROGRESS_HH
