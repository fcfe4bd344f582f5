#include "sim/simulator.hh"

#include <cassert>

namespace orion::sim {

void
Simulator::add(Module* m)
{
    modules_.push_back(m);
}

void
Simulator::addChannel(ChannelBase* c)
{
    // Channels enqueue themselves on pendingAdvance_ when written.
    // Its address must stay stable for the simulator's lifetime
    // (channels capture it), which holds because Simulator is neither
    // copyable nor movable.
    c->setAdvanceQueue(&pendingAdvance_);
}

void
Simulator::setAudit(Cycle interval, std::function<void()> audit)
{
    assert((interval == 0 || audit) && "an audit interval needs an audit");
    auditInterval_ = interval;
    audit_ = std::move(audit);
}

void
Simulator::addPeriodic(std::string name, Cycle interval,
                       std::function<void(Cycle)> fn)
{
    assert(interval > 0 && "periodic hooks need a nonzero interval");
    periodics_.push_back({std::move(name), interval, std::move(fn)});
}

void
Simulator::step()
{
    // With a profiler attached, wall-time marks separate the stages on
    // its sampled cycles (core::PhaseProfiler::kStride). The profiler
    // never touches simulation state, so the event sequence, and
    // therefore every result, is the same with or without one.
    using Phase = core::PhaseProfiler::Phase;
    core::PhaseProfiler* const prof = profiler_;
    if (prof != nullptr)
        prof->beginCycle();
    for (auto* m : modules_)
        m->cycle(now_);
    if (prof != nullptr)
        prof->phaseDone(Phase::RouterAdvance);
    // Advance order equals write order (deterministic: modules run in
    // registration order), and each advance touches only its own
    // channel, so scheduling preserves the all-channels semantics
    // exactly while the boundary cost scales with messages in flight
    // rather than wires in the network. The advance is the same for
    // every message type, so it is one inline call on ChannelBase.
    for (ChannelBase* c : pendingAdvance_)
        c->advance();
    pendingAdvance_.clear();
    if (prof != nullptr)
        prof->phaseDone(Phase::ChannelAdvance);
    ++now_;
    // Audits observe the post-advance state: every channel's staged
    // slot is empty, so in-flight messages are exactly the current
    // slots — the well-defined cycle boundary the invariants assume.
    if (auditInterval_ != 0 && now_ % auditInterval_ == 0)
        audit_();
    if (prof != nullptr)
        prof->phaseDone(Phase::Audit);
    for (const auto& p : periodics_) {
        if (now_ % p.interval == 0)
            p.fn(now_);
    }
    if (prof != nullptr)
        prof->phaseDone(Phase::Periodic);
}

bool
Simulator::loop(Cycle max_cycles, const std::function<bool()>* done)
{
    for (Cycle i = 0; i < max_cycles; ++i) {
        // One relaxed load per cycle, plus a wall-clock deadline poll
        // every kCancelPollCycles (clock reads are far too slow for
        // the per-cycle path).
        if (cancel_ != nullptr) {
            if (i % core::kCancelPollCycles == 0)
                cancel_->poll();
            if (cancel_->cancelled())
                return false;
        }
        step();
        if (done != nullptr && (*done)())
            return true;
    }
    return false;
}

void
Simulator::run(Cycle cycles)
{
    loop(cycles, nullptr);
}

bool
Simulator::runUntil(const std::function<bool()>& done, Cycle max_cycles)
{
    return loop(max_cycles, &done) || done();
}

} // namespace orion::sim
