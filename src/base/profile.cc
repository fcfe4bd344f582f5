#include "base/profile.hh"

#include "base/clock.hh"

namespace orion::core {

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
PhaseProfiler::startRun()
{
    runMark_ = monotonicSeconds();
}

void
PhaseProfiler::runPhaseDone(Phase phase)
{
    const double now = monotonicSeconds();
    seconds_[static_cast<unsigned>(phase)] += now - runMark_;
    runMark_ = now;
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
