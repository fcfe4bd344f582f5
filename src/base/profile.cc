#include "base/profile.hh"

#include <chrono>

namespace orion::core {

namespace {

double
monotonicSeconds()
{
    const auto now =
        std::chrono::steady_clock::now() // lint-allow: nondeterminism -- profiling only
            .time_since_epoch();
    return std::chrono::duration<double>(now).count();
}

} // namespace

void
PhaseProfiler::beginCycle()
{
    sampling_ = (cycles_ % kStride) == 0;
    ++cycles_;
    if (sampling_) {
        ++sampled_;
        mark_ = monotonicSeconds();
    }
}

void
PhaseProfiler::phaseDone(Phase phase)
{
    if (!sampling_)
        return;
    const double now = monotonicSeconds();
    seconds_[static_cast<unsigned>(phase)] += now - mark_;
    mark_ = now;
}

void
PhaseProfiler::addRunSeconds(Phase phase, double seconds)
{
    if (seconds > 0.0)
        seconds_[static_cast<unsigned>(phase)] += seconds;
}

double
PhaseProfiler::seconds(Phase phase) const
{
    return seconds_[static_cast<unsigned>(phase)];
}

const char*
PhaseProfiler::phaseName(Phase phase)
{
    switch (phase) {
    case Phase::RouterAdvance: return "router_advance";
    case Phase::ChannelAdvance: return "channel_advance";
    case Phase::Audit: return "audit";
    case Phase::Periodic: return "periodic";
    case Phase::Warmup: return "warmup";
    case Phase::Measure: return "measure";
    case Phase::Drain: return "drain";
    case Phase::Count: break;
    }
    return "unknown";
}

} // namespace orion::core
