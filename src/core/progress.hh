/**
 * @file
 * Live sweep progress: heartbeat files, ETA, stall warnings and a
 * rewriting terminal progress line (docs/OBSERVABILITY.md, "Run-level
 * observability").
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
 * detection) update under an annotated mutex, and when a heartbeat
 * path is configured the JSON snapshot is atomically replaced
 * (tmp + rename, same crash discipline as the checkpoint journal) so
 * a reader — tools/orion_status.py — never sees a torn file, even
 * after SIGKILL. A background thread refreshes the heartbeat between
 * completions and emits stall warnings through the structured logger
 * when a cell runs longer than 4x the median point time (and at least
 * 5 s; needs >= 5 completed points).
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
#include "core/sync.hh"

namespace orion::core {

class ProgressTracker
{
  public:
    struct Options
    {
        /// Heartbeat JSON path; empty disables the heartbeat file.
        std::string heartbeatPath;
        double heartbeatIntervalSeconds = 1.0;
        /// Rewriting stderr progress line. Forced off when stderr is
        /// not a TTY, so piped/redirected runs stay byte-identical.
        bool progressLine = false;
        std::uint64_t totalCells = 0;
        unsigned jobs = 1;
    };

    explicit ProgressTracker(Options opts);
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
     * SimConfig::progressCycles). Valid until endCell(). */
    std::atomic<std::uint64_t>* cycleCounter(unsigned slot);

    /** Release the slot and record the outcome. */
    void endCell(unsigned slot, bool failed, double wallSeconds)
        ORION_EXCLUDES(mutex_);

    /** Count cells satisfied from a checkpoint journal (no wall-time
     * sample; they cost nothing in this run). */
    void noteCached() ORION_EXCLUDES(mutex_);

    /// @}

    /** Write a final heartbeat (finished=true), clear the progress
     * line and stop the background thread. Idempotent; the destructor
     * calls it. */
    void finalize() ORION_EXCLUDES(mutex_);

    /// @name Snapshot (tests, manifests)
    /// @{
    std::uint64_t done() const ORION_EXCLUDES(mutex_);
    std::uint64_t failed() const ORION_EXCLUDES(mutex_);
    std::uint64_t fromCheckpoint() const ORION_EXCLUDES(mutex_);
    std::uint64_t total() const { return opts_.totalCells; }
    /// Negative when unknown (no completed samples yet).
    double etaSeconds() const ORION_EXCLUDES(mutex_);
    /// Current heartbeat JSON (what the file would contain).
    std::string heartbeatJson() const ORION_EXCLUDES(mutex_);
    /// @}

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
    std::string composeJson(bool finished) const
        ORION_REQUIRES(mutex_);
    void writeHeartbeat(bool finished) ORION_EXCLUDES(mutex_);
    void renderProgressLine() ORION_EXCLUDES(mutex_);
    double etaSecondsLocked() const ORION_REQUIRES(mutex_);
    double medianPointSecondsLocked() const ORION_REQUIRES(mutex_);
    void checkStalls() ORION_EXCLUDES(mutex_);
    void threadMain();

    const Options opts_;
    const bool tty_;               ///< stderr is a TTY (line allowed)
    const double startUnixSeconds_; ///< wall clock at construction
    // Fixed-size slot array; elements are atomics mutated lock-free by
    // their owning worker and read by the heartbeat thread.
    std::vector<Slot> slots_; // lint-allow: unguarded -- fixed-size array of lock-free atomics
    // Joined exactly once by finalize(); never touched concurrently.
    std::thread thread_; // lint-allow: unguarded -- ctor/finalize only
    // Monotonic base for secondsSinceStart(); set once in the ctor.
    double steadyBase_ = 0.0; // lint-allow: unguarded -- written once before the thread starts

    /** Serializes heartbeat file replacement: concurrent writers
     * (worker endCell vs. the background thread) would otherwise race
     * on the shared "path.tmp" staging name — one rename wins, the
     * other fails on the vanished tmp file. Held only around the
     * write, never while composing under mutex_. */
    mutable core::Mutex writeMutex_;

    mutable core::Mutex mutex_;
    CondVar wake_;
    bool stop_ ORION_GUARDED_BY(mutex_) = false;
    bool finalized_ ORION_GUARDED_BY(mutex_) = false;
    bool heartbeatBroken_ ORION_GUARDED_BY(mutex_) = false;
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
