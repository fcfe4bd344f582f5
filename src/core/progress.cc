#include "core/progress.hh"

#include <algorithm>
#include <cstdio>
#include <limits>

#include <unistd.h>

#include <chrono>

#include "base/json.hh"
#include "core/log.hh"
#include "core/manifest.hh"

namespace orion::core {

namespace {

constexpr unsigned kNoSlot = std::numeric_limits<unsigned>::max();

double
monotonicSeconds()
{
    const auto now =
        std::chrono::steady_clock::now() // lint-allow: nondeterminism -- progress display only
            .time_since_epoch();
    return std::chrono::duration<double>(now).count();
}

double
wallUnixSeconds()
{
    const auto now =
        std::chrono::system_clock::now() // lint-allow: nondeterminism -- heartbeat timestamp only
            .time_since_epoch();
    return std::chrono::duration<double>(now).count();
}

std::string
fmtEta(double eta)
{
    if (eta < 0.0)
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
      startUnixSeconds_(wallUnixSeconds()),
      slots_(std::max(1u, opts_.jobs))
{
    steadyBase_ = monotonicSeconds();
    pointSeconds_.reserve(256);
    const bool wantThread =
        !opts_.heartbeatPath.empty() || (opts_.progressLine && tty_);
    if (wantThread && opts_.heartbeatIntervalSeconds > 0.0)
        thread_ = std::thread([this] { threadMain(); });
    if (!opts_.heartbeatPath.empty())
        writeHeartbeat(false); // a heartbeat exists from the start
}

ProgressTracker::~ProgressTracker()
{
    finalize();
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
    if (slot >= slots_.size())
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
    }
    if (!opts_.heartbeatPath.empty())
        writeHeartbeat(false);
    renderProgressLine();
}

void
ProgressTracker::noteCached()
{
    {
        LockGuard lock(mutex_);
        ++done_;
        ++cached_;
    }
    if (!opts_.heartbeatPath.empty())
        writeHeartbeat(false);
    renderProgressLine();
}

void
ProgressTracker::finalize()
{
    {
        LockGuard lock(mutex_);
        if (finalized_)
            return;
        finalized_ = true;
        stop_ = true;
        wake_.notifyAll();
    }
    if (thread_.joinable())
        thread_.join();
    if (!opts_.heartbeatPath.empty())
        writeHeartbeat(true);
    LockGuard lock(mutex_);
    if (lineDrawn_) {
        // Clear the rewriting line so subsequent stderr output starts
        // on a clean column.
        log::rawStderr("\r" + std::string(78, ' ') + "\r");
        lineDrawn_ = false;
    }
}

std::uint64_t
ProgressTracker::done() const
{
    LockGuard lock(mutex_);
    return done_;
}

std::uint64_t
ProgressTracker::failed() const
{
    LockGuard lock(mutex_);
    return failed_;
}

std::uint64_t
ProgressTracker::fromCheckpoint() const
{
    LockGuard lock(mutex_);
    return cached_;
}

double
ProgressTracker::etaSeconds() const
{
    LockGuard lock(mutex_);
    return etaSecondsLocked();
}

std::string
ProgressTracker::heartbeatJson() const
{
    LockGuard lock(mutex_);
    return composeJson(false);
}

double
ProgressTracker::etaSecondsLocked() const
{
    if (emaPointSeconds_ <= 0.0 || opts_.totalCells == 0)
        return -1.0;
    const std::uint64_t remaining =
        opts_.totalCells > done_ ? opts_.totalCells - done_ : 0;
    const unsigned lanes = std::max(1u, opts_.jobs);
    return static_cast<double>(remaining) * emaPointSeconds_ /
           static_cast<double>(lanes);
}

double
ProgressTracker::medianPointSecondsLocked() const
{
    if (pointSeconds_.empty())
        return -1.0;
    std::vector<double> copy = pointSeconds_;
    const std::size_t mid = copy.size() / 2;
    std::nth_element(copy.begin(),
                     copy.begin() + static_cast<std::ptrdiff_t>(mid),
                     copy.end());
    return copy[mid];
}

std::string
ProgressTracker::composeJson(bool finished) const
{
    std::string j;
    j.reserve(512);
    const double eta = etaSecondsLocked();
    const double median = medianPointSecondsLocked();
    j += "{\"schema\":\"orion-heartbeat-v1\",\"label\":\"";
    j += report::jsonEscape(opts_.label);
    j += "\",\"pid\":";
    j += std::to_string(::getpid());
    j += ",\"total\":";
    j += std::to_string(opts_.totalCells);
    j += ",\"done\":";
    j += std::to_string(done_);
    j += ",\"failed\":";
    j += std::to_string(failed_);
    j += ",\"from_checkpoint\":";
    j += std::to_string(cached_);
    j += ",\"jobs\":";
    j += std::to_string(opts_.jobs);
    j += ",\"finished\":";
    j += finished ? "true" : "false";
    j += ",\"eta_s\":";
    j += eta < 0.0 ? std::string("null") : log::strf("%.3f", eta);
    j += ",\"ema_point_s\":";
    j += emaPointSeconds_ <= 0.0 ? std::string("null")
                                 : log::strf("%.6f", emaPointSeconds_);
    j += ",\"median_point_s\":";
    j += median < 0.0 ? std::string("null")
                      : log::strf("%.6f", median);
    j += ",\"started_unix_s\":";
    j += log::strf("%.3f", startUnixSeconds_);
    j += ",\"updated_unix_s\":";
    j += log::strf("%.3f", wallUnixSeconds());
    j += ",\"workers\":[";
    bool first = true;
    const double now_s = secondsSinceStart();
    for (unsigned i = 0; i < slots_.size(); ++i) {
        const Slot& s = slots_[i];
        if (!s.active.load(std::memory_order_acquire))
            continue;
        if (!first)
            j += ',';
        first = false;
        j += "{\"slot\":";
        j += std::to_string(i);
        j += ",\"rate_index\":";
        j += std::to_string(
            s.rateIndex.load(std::memory_order_relaxed));
        j += ",\"seed_index\":";
        j += std::to_string(
            s.seedIndex.load(std::memory_order_relaxed));
        j += ",\"attempt\":";
        j += std::to_string(s.attempt.load(std::memory_order_relaxed));
        j += ",\"cycles\":";
        j += std::to_string(s.cycles.load(std::memory_order_relaxed));
        j += ",\"running_s\":";
        const double run =
            now_s - s.startSeconds.load(std::memory_order_relaxed);
        j += log::strf("%.3f", run > 0.0 ? run : 0.0);
        j += '}';
    }
    j += "]}\n";
    return j;
}

void
ProgressTracker::writeHeartbeat(bool finished)
{
    std::string j;
    {
        LockGuard lock(mutex_);
        if (heartbeatBroken_)
            return;
        j = composeJson(finished);
    }
    try {
        // writeMutex_ serializes the tmp+rename replacement; several
        // writers (worker endCell, the background thread, finalize)
        // share one staging path.
        LockGuard wlock(writeMutex_);
        writeFileAtomic(opts_.heartbeatPath, j);
    } catch (const std::exception& e) {
        LockGuard lock(mutex_);
        if (!heartbeatBroken_) {
            heartbeatBroken_ = true;
            log::event(log::Level::Error, "heartbeat.write_failed",
                       {log::str("path", opts_.heartbeatPath),
                        log::str("error", e.what())});
        }
    }
}

void
ProgressTracker::renderProgressLine()
{
    if (!opts_.progressLine || !tty_)
        return;
    LockGuard lock(mutex_);
    std::string line = log::strf(
        "\r%s: %llu/%llu done, %llu failed, ETA %s    ",
        opts_.label.c_str(),
        static_cast<unsigned long long>(done_),
        static_cast<unsigned long long>(opts_.totalCells),
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
    if (samples < 5 || median <= 0.0)
        return;
    const double threshold =
        std::max(opts_.stallFactor * median, opts_.stallFloorSeconds);
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
            LockGuard lock(mutex_);
            if (stop_)
                return;
            wake_.waitFor(mutex_, opts_.heartbeatIntervalSeconds);
            if (stop_)
                return;
        }
        if (!opts_.heartbeatPath.empty())
            writeHeartbeat(false);
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
    startSeconds_ = monotonicSeconds();
}

ProgressScope::~ProgressScope()
{
    // An escape without end() means the cell died exceptionally.
    if (!ended_)
        end(true);
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
ProgressScope::end(bool failed)
{
    if (ended_)
        return;
    ended_ = true;
    if (tracker_ == nullptr)
        return;
    tracker_->endCell(slot_, failed,
                      monotonicSeconds() - startSeconds_);
}

} // namespace orion::core
