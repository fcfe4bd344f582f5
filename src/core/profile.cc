#include "core/profile.hh"

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

std::vector<PhaseShare>
PhaseProfiler::shares() const
{
    constexpr unsigned kFirstRunPhase =
        static_cast<unsigned>(Phase::Warmup);
    double cycle_total = 0.0;
    double run_total = 0.0;
    for (unsigned i = 0; i < kNumPhases; ++i) {
        if (i < kFirstRunPhase)
            cycle_total += seconds_[i];
        else
            run_total += seconds_[i];
    }
    std::vector<PhaseShare> out;
    out.reserve(kNumPhases);
    for (unsigned i = 0; i < kNumPhases; ++i) {
        PhaseShare s;
        s.name = phaseName(static_cast<Phase>(i));
        s.seconds = seconds_[i];
        const double total =
            i < kFirstRunPhase ? cycle_total : run_total;
        s.share = total > 0.0 ? seconds_[i] / total : 0.0;
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace orion::core
