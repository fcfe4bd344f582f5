#include "core/progress.hh"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include <unistd.h>

#include "base/clock.hh"
#include "core/log.hh"

namespace orion::core {

namespace {

constexpr unsigned kNoSlot = std::numeric_limits<unsigned>::max();
/** A cell is stalled once it runs kStallFactor x the median
 * completed-point wall time, and at least kStallFloorSeconds. */
constexpr double kStallFactor = 4.0;
constexpr double kStallFloorSeconds = 5.0;
/** Seconds between refreshes when no cell finishes (a finished cell
 * refreshes the manifest and the progress line at once). */
constexpr double kRefreshSeconds = 1.0;

std::string
fmtEta(double eta)
{
    if (!(eta >= 0.0))
        return "--";
    if (eta < 120.0)
        return log::strf("%.0fs", eta);
    if (eta < 7200.0)
        return log::strf("%.1fm", eta / 60.0);
    return log::strf("%.1fh", eta / 3600.0);
}

} // namespace

ProgressTracker::ProgressTracker(Options opts)
    : opts_(std::move(opts)),
      tty_(::isatty(STDERR_FILENO) == 1),
      live_(!opts_.manifestPath.empty() || (opts_.progressLine && tty_)),
      slots_(std::max(1u, opts_.manifest.jobs))
{
    steadyBase_ = monotonicSeconds();
    pointSeconds_.reserve(256);
    // The manifest exists from the start; a path that cannot take it
    // fails the run before any cell runs.
    if (!opts_.manifestPath.empty())
        writeFileAtomic(opts_.manifestPath, snapshot().toJson());
    if (live_)
        thread_ = std::thread([this] { threadMain(); });
}

ProgressTracker::~ProgressTracker()
{
    stop();
}

double
ProgressTracker::secondsSinceStart() const
{
    return monotonicSeconds() - steadyBase_;
}

unsigned
ProgressTracker::beginCell(std::uint64_t rateIndex, unsigned seedIndex)
{
    LockGuard lock(mutex_);
    for (unsigned i = 0; i < slots_.size(); ++i) {
        Slot& s = slots_[i];
        if (s.active.load(std::memory_order_relaxed))
            continue;
        s.rateIndex.store(rateIndex, std::memory_order_relaxed);
        s.seedIndex.store(seedIndex, std::memory_order_relaxed);
        s.attempt.store(1, std::memory_order_relaxed);
        s.cycles.store(0, std::memory_order_relaxed);
        s.startSeconds.store(secondsSinceStart(),
                             std::memory_order_relaxed);
        s.stallWarned.store(false, std::memory_order_relaxed);
        s.active.store(true, std::memory_order_release);
        return i;
    }
    return kNoSlot; // more in-flight cells than jobs; count-only
}

void
ProgressTracker::setAttempt(unsigned slot, unsigned attempt)
{
    if (slot >= slots_.size())
        return;
    slots_[slot].attempt.store(attempt, std::memory_order_relaxed);
}

std::atomic<std::uint64_t>*
ProgressTracker::cycleCounter(unsigned slot)
{
    if (!live_ || slot >= slots_.size())
        return nullptr;
    return &slots_[slot].cycles;
}

void
ProgressTracker::endCell(unsigned slot, bool failed, double wallSeconds)
{
    {
        LockGuard lock(mutex_);
        if (slot < slots_.size())
            slots_[slot].active.store(false,
                                      std::memory_order_release);
        ++done_;
        if (failed)
            ++failed_;
        if (wallSeconds >= 0.0) {
            emaPointSeconds_ = emaPointSeconds_ <= 0.0
                                   ? wallSeconds
                                   : 0.3 * wallSeconds +
                                         0.7 * emaPointSeconds_;
            pointSeconds_.push_back(wallSeconds);
        }
        changed_ = true;
        wake_.notifyAll();
    }
}

void
ProgressTracker::noteCached(bool failed)
{
    LockGuard lock(mutex_);
    ++done_;
    ++cached_;
    if (failed)
        ++failed_;
    changed_ = true;
    wake_.notifyAll();
}

void
ProgressTracker::stop()
{
    {
        LockGuard lock(mutex_);
        stop_ = true;
        wake_.notifyAll();
    }
    if (thread_.joinable())
        thread_.join();
    LockGuard lock(mutex_);
    if (lineDrawn_) {
        // Clear the rewriting line so subsequent stderr output starts
        // on a clean column.
        log::rawStderr("\r" + std::string(78, ' ') + "\r");
        lineDrawn_ = false;
    }
}

void
ProgressTracker::finish(const std::string& stopReason)
{
    stop();
    if (opts_.manifestPath.empty())
        return;
    RunManifest m = snapshot();
    m.finish(stopReason);
    writeFileAtomic(opts_.manifestPath, m.toJson());
}

RunManifest
ProgressTracker::snapshot() const
{
    LockGuard lock(mutex_);
    return snapshotLocked();
}

double
ProgressTracker::etaSecondsLocked() const
{
    const std::uint64_t total = opts_.manifest.pointsTotal;
    if (emaPointSeconds_ <= 0.0 || total == 0)
        return RunManifest::kUnknown;
    const std::uint64_t remaining = total > done_ ? total - done_ : 0;
    const unsigned lanes = std::max(1u, opts_.manifest.jobs);
    return static_cast<double>(remaining) * emaPointSeconds_ /
           static_cast<double>(lanes);
}

double
ProgressTracker::medianPointSecondsLocked() const
{
    if (pointSeconds_.empty())
        return RunManifest::kUnknown;
    std::vector<double> copy = pointSeconds_;
    const std::size_t mid = copy.size() / 2;
    std::nth_element(copy.begin(),
                     copy.begin() + static_cast<std::ptrdiff_t>(mid),
                     copy.end());
    return copy[mid];
}

RunManifest
ProgressTracker::snapshotLocked() const
{
    RunManifest m = opts_.manifest;
    m.pointsCompleted = done_ - failed_;
    m.pointsFailed = failed_;
    m.pointsFromCheckpoint = cached_;
    m.etaSeconds = etaSecondsLocked();
    m.emaPointSeconds =
        emaPointSeconds_ > 0.0 ? emaPointSeconds_ : RunManifest::kUnknown;
    m.medianPointSeconds = medianPointSecondsLocked();
    m.updatedUnixSeconds = unixSeconds();
    const double now_s = secondsSinceStart();
    for (unsigned i = 0; i < slots_.size(); ++i) {
        const Slot& s = slots_[i];
        if (!s.active.load(std::memory_order_acquire))
            continue;
        const double run =
            now_s - s.startSeconds.load(std::memory_order_relaxed);
        m.workers.push_back(
            {i, s.rateIndex.load(std::memory_order_relaxed),
             s.seedIndex.load(std::memory_order_relaxed),
             s.attempt.load(std::memory_order_relaxed),
             s.cycles.load(std::memory_order_relaxed),
             run > 0.0 ? run : 0.0});
    }
    return m;
}

void
ProgressTracker::rewrite()
{
    if (opts_.manifestPath.empty() || rewritesFailed_)
        return;
    try {
        writeFileAtomic(opts_.manifestPath, snapshot().toJson());
    } catch (const IoError& e) {
        // A live update is best-effort: say so once and stop trying;
        // finish() still writes the final manifest or throws.
        rewritesFailed_ = true;
        log::diag(log::Level::Warn, "manifest.write_failed",
                  log::strf("%s: cannot update the run manifest: %s; "
                            "live updates stop\n",
                            opts_.manifest.tool.c_str(), e.what()),
                  {log::str("path", opts_.manifestPath)});
    }
}

void
ProgressTracker::renderProgressLine()
{
    if (!opts_.progressLine || !tty_)
        return;
    LockGuard lock(mutex_);
    std::string line = log::strf(
        "\rsweep: %llu/%llu done, %llu failed, ETA %s    ",
        static_cast<unsigned long long>(done_),
        static_cast<unsigned long long>(opts_.manifest.pointsTotal),
        static_cast<unsigned long long>(failed_),
        fmtEta(etaSecondsLocked()).c_str());
    if (line.size() > 79)
        line.resize(79);
    log::rawStderr(line);
    lineDrawn_ = true;
}

void
ProgressTracker::checkStalls()
{
    double median = 0.0;
    std::size_t samples = 0;
    {
        LockGuard lock(mutex_);
        median = medianPointSecondsLocked();
        samples = pointSeconds_.size();
    }
    if (samples < 5 || !(median > 0.0))
        return;
    const double threshold =
        std::max(kStallFactor * median, kStallFloorSeconds);
    const double now_s = secondsSinceStart();
    for (unsigned i = 0; i < slots_.size(); ++i) {
        Slot& s = slots_[i];
        if (!s.active.load(std::memory_order_acquire))
            continue;
        const double run =
            now_s - s.startSeconds.load(std::memory_order_relaxed);
        if (run < threshold)
            continue;
        if (s.stallWarned.exchange(true, std::memory_order_relaxed))
            continue;
        log::event(
            log::Level::Warn, "sweep.stall",
            {log::u64("slot", i),
             log::u64("rate_index",
                      s.rateIndex.load(std::memory_order_relaxed)),
             log::u64("seed_index",
                      s.seedIndex.load(std::memory_order_relaxed)),
             log::u64("attempt",
                      s.attempt.load(std::memory_order_relaxed)),
             log::u64("cycles",
                      s.cycles.load(std::memory_order_relaxed)),
             log::num("running_s", run),
             log::num("median_point_s", median),
             log::num("threshold_s", threshold)});
    }
}

void
ProgressTracker::threadMain()
{
    for (;;) {
        {
            // Woken by a finished or cached cell, or by the interval:
            // the cells that finish during one write share the next.
            LockGuard lock(mutex_);
            if (!changed_ && !stop_)
                wake_.waitFor(mutex_, opts_.intervalSeconds > 0.0
                                          ? opts_.intervalSeconds
                                          : kRefreshSeconds);
            if (stop_)
                return;
            changed_ = false;
        }
        rewrite();
        renderProgressLine();
        checkStalls();
    }
}

ProgressScope::ProgressScope(ProgressTracker* tracker,
                             std::uint64_t rateIndex,
                             unsigned seedIndex)
    : tracker_(tracker)
{
    if (tracker_ == nullptr)
        return;
    slot_ = tracker_->beginCell(rateIndex, seedIndex);
}

ProgressScope::~ProgressScope()
{
    // An escape without end() means the cell died exceptionally; its
    // time is unknown, so it adds no point-time sample.
    if (!ended_)
        end(true, -1.0);
}

void
ProgressScope::setAttempt(unsigned attempt)
{
    if (tracker_ != nullptr)
        tracker_->setAttempt(slot_, attempt);
}

std::atomic<std::uint64_t>*
ProgressScope::cycles()
{
    return tracker_ != nullptr ? tracker_->cycleCounter(slot_)
                               : nullptr;
}

void
ProgressScope::end(bool failed, double wallSeconds)
{
    if (ended_)
        return;
    ended_ = true;
    if (tracker_ == nullptr)
        return;
    tracker_->endCell(slot_, failed, wallSeconds);
}

} // namespace orion::core
