#include "router/vc_router.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>
#include <utility>

namespace orion::router {

CrossbarRouter::CrossbarRouter(std::string name, int node,
                               const RouterParams& params,
                               sim::EventBus& bus, bool va_enabled)
    : Router(std::move(name), node, params, bus),
      vaEnabled_(va_enabled),
      xbar_(bus, node, params.ports, params.ports, params.flitBits),
      rrNextVc_(params.ports, 0),
      vaScan_(params.ports, 0),
      stLatch_(params.ports),
      portFlits_(params.ports, 0),
      saCand_(params.ports),
      saReqs_(params.ports, 0),
      vaWords_(Arbiter::wordsFor((params.ports - 1) * params.vcs)),
      vaReqs_(params.ports * params.vcs * vaWords_, 0),
      vaNewRing_(params.ports * vaWords_, 0)
{
    assert(va_enabled || params.vcs == 1);

    const unsigned n_vcs = params.ports * params.vcs;
    fifos_.reserve(n_vcs);
    for (unsigned i = 0; i < n_vcs; ++i) {
        fifos_.emplace_back(bus, node, static_cast<int>(i),
                            params.bufferDepth, params.flitBits);
    }
    vcState_.resize(n_vcs);
    outVcBusy_.assign(n_vcs, 0);

    saArb_.reserve(params.ports);
    for (unsigned o = 0; o < params.ports; ++o)
        saArb_.push_back(makeArbiter(params.arbiterKind,
                                     params.ports - 1));

    if (vaEnabled_) {
        const unsigned va_reqs = (params.ports - 1) * params.vcs;
        vaArb_.reserve(n_vcs);
        for (unsigned i = 0; i < n_vcs; ++i)
            vaArb_.push_back(makeArbiter(params.arbiterKind, va_reqs));
    }
}

const FlitFifo&
CrossbarRouter::inputFifo(unsigned port, unsigned vc) const
{
    assert(port < params_.ports && vc < params_.vcs);
    return fifos_[vcIndex(port, vc)];
}

bool
CrossbarRouter::outVcBusy(unsigned port, unsigned vc) const
{
    assert(port < params_.ports && vc < params_.vcs);
    return outVcBusy_[vcIndex(port, vc)] != 0;
}

std::size_t
CrossbarRouter::bufferedFlits() const
{
    std::size_t n = 0;
    for (const auto& fifo : fifos_)
        n += fifo.size();
    return n;
}

std::size_t
CrossbarRouter::latchedFlits() const
{
    return static_cast<std::size_t>(std::popcount(latched_));
}

std::size_t
CrossbarRouter::residentFlits() const
{
    return bufferedFlits() + latchedFlits();
}

std::size_t
CrossbarRouter::latchedForOutput(unsigned port, unsigned vc) const
{
    // The SA stage rewrites flit.vc to the downstream input VC before
    // latching, so the latched flit is matched against the downstream
    // VC the audit is balancing.
    return (latched_ >> port & 1) && stLatch_[port].flit.vc == vc ? 1 : 0;
}

void
CrossbarRouter::debugDropFlit(unsigned port, unsigned vc)
{
    assert(port < params_.ports && vc < params_.vcs);
    FlitFifo& fifo = fifoAt(port, vc);
    assert(!fifo.empty());
    // Keep the fast-path occupancy counters consistent so only the
    // conservation ledger — not internal bookkeeping — goes wrong.
    (void)fifo.read(/*now=*/0);
    --portFlits_[port];
    --totalFlits_;
}

bool
CrossbarRouter::vcWaitState(unsigned port, unsigned vc,
                            VcWaitState& out) const
{
    assert(port < params_.ports && vc < params_.vcs);
    const FlitFifo& fifo = fifos_[vcIndex(port, vc)];
    const VcState& st = vcState_[vcIndex(port, vc)];
    out = VcWaitState{};
    out.hasFront = !fifo.empty();
    out.phase = static_cast<int>(st.phase);
    out.outPort = st.outPort;
    out.outVc = st.outVc;
    out.vcClass = st.vcClass;
    if (out.hasFront) {
        const Flit& front = fifo.front();
        out.frontHead = front.head;
        out.packetId = front.packet->id;
        out.attempt = front.packet->attempt;
        out.createdAt = front.packet->createdAt;
        // An Idle VC with a head at the front is waiting to enter VC
        // allocation (or, in wormhole mode, to claim the output at
        // SA): surface the requested output from the source route so
        // the detector can draw its wait edge.
        if (st.phase == VcState::Phase::Idle && front.head) {
            const RouteHop& hop = front.routeHop();
            out.outPort = hop.port;
            out.vcClass = hop.vcClass;
        }
    }
    return true;
}

bool
CrossbarRouter::poisonBlockedWorm(unsigned port, unsigned vc,
                                  sim::Cycle now)
{
    assert(port < params_.ports && vc < params_.vcs);
    if (!faultHooks_)
        return false;
    FlitFifo& fifo = fifoAt(port, vc);
    // Only a VC whose front is a worm head can be poisoned cleanly:
    // nothing of this attempt is buffered downstream, so discarding
    // the local run plus arming drop-until-tail for the in-flight
    // remainder removes the whole attempt. Every wait-for cycle has at
    // least one such VC (a body-front VC's head was forwarded onward,
    // so the chain of body-front VCs terminates at a head-front one).
    if (fifo.empty() || !fifo.front().head)
        return false;
    VcState& st = vcStateAt(port, vc);
    const auto pkt = fifo.front().packet;
    const unsigned attempt = pkt->attempt;
    if (st.phase == VcState::Phase::Active)
        outVcBusy_[vcIndex(st.outPort, st.outVc)] = false;
    st.reset();
    faultHooks_->onPacketKilled(pkt, now);
    // Discard the contiguous buffered run of this attempt, returning
    // one upstream credit per freed slot. These flits were already
    // counted in flitsArrived_ when buffered, so only the discard side
    // of the conservation ledger moves.
    bool saw_tail = false;
    while (!fifo.empty()) {
        const Flit& front = fifo.front();
        if (front.packet->id != pkt->id ||
            front.packet->attempt != attempt) {
            break;
        }
        const Flit flit = fifo.read(now);
        saw_tail = flit.tail;
        --portFlits_[port];
        --totalFlits_;
        ++flitsDiscarded_;
        sendCreditUpstream(port, vc, now);
        faultHooks_->onFlitDiscarded(flit, now);
        if (saw_tail)
            break;
    }
    if (!saw_tail)
        armDropUntilTail(port, vc, pkt->id, attempt);
    return true;
}

void
CrossbarRouter::cycle(sim::Cycle now)
{
    // Skip-quiescent fast path: with no buffered flits, no occupied
    // ST latch, no deferred credits and no message readable on any
    // input (flit or credit — the links' wake masks cover both), every
    // stage below is a no-op that emits nothing and mutates nothing,
    // so the cycle can be skipped without changing any observable
    // state. At low load most routers idle most cycles; this turns
    // their cost into four scalar tests.
    if ((flitInputs_ | creditInputs_) == 0 && totalFlits_ == 0 &&
        latched_ == 0 && pendingCreditTotal_ == 0) {
        return;
    }
    receiveCredits();
    drainPendingCredits(now);
    stStage(now);
    if (vaEnabled_ && params_.speculative) {
        // Speculative pipeline: VA runs before SA within the cycle,
        // so a freshly allocated head can bid for (and win) the
        // switch immediately — VA and SA share a pipeline stage.
        vaStage(now);
        saStage(now);
    } else {
        saStage(now);
        if (vaEnabled_)
            vaStage(now);
    }
    bwStage(now);
}

void
CrossbarRouter::stStage(sim::Cycle now)
{
    for (std::uint64_t m = latched_; m != 0; m &= m - 1) {
        const auto o = static_cast<unsigned>(std::countr_zero(m));
        // Scheduled port-stall fault: the flit stays latched (and SA
        // will not refill the occupied latch) until the stall lifts.
        if (faultHooks_ && faultHooks_->portStalled(node(), o, now))
            continue;
        latched_ &= ~(std::uint64_t{1} << o);
        StEntry& entry = stLatch_[o];
        xbar_.traverse(entry.inPort, o, entry.flit, now);
        assert(outLinks_[o] && "flit routed to unconnected output");
        outLinks_[o]->send(std::move(entry.flit), bus_, now);
        ++flitsForwarded_;
    }
}

std::pair<unsigned, unsigned>
CrossbarRouter::classVcRange(unsigned cls) const
{
    if (params_.deadlock == DeadlockMode::Dateline) {
        const unsigned half = params_.vcs / 2;
        return cls == 0 ? std::pair<unsigned, unsigned>{0u, half}
                        : std::pair<unsigned, unsigned>{half, params_.vcs};
    }
    return {0u, params_.vcs};
}

bool
CrossbarRouter::pickCandidate(unsigned p, Candidate& c)
{
    if (portFlits_[p] == 0)
        return false;
    for (unsigned k = 0; k < params_.vcs; ++k) {
        const unsigned v = (rrNextVc_[p] + k) % params_.vcs;
        FlitFifo& fifo = fifoAt(p, v);
        if (fifo.empty())
            continue;
        VcState& st = vcStateAt(p, v);
        const Flit& front = fifo.front();

        if (st.phase == VcState::Phase::Active) {
            // VC routers do their bubble-rule space reservation at VA
            // (an empty VC was reserved for the whole packet), so SA
            // only needs one credit; wormhole routers enforce the
            // flit-granular bubble rule here.
            const unsigned need =
                vaEnabled_
                    ? 1
                    : requiredSpace(front.head, st.newRing, st.outPort);
            if (outputCredits(st.outPort, st.outVc) < need)
                continue;
            c = {v, st.outPort, st.outVc, false};
            return true;
        }

        // Wormhole mode: route setup and output claim happen at SA.
        if (!vaEnabled_ && st.phase == VcState::Phase::Idle &&
            front.head) {
            const RouteHop& hop = front.routeHop();
            const unsigned o = hop.port;
            assert(o != p && "u-turn in route");
            if (outVcBusy_[vcIndex(o, 0)])
                continue;
            const unsigned need =
                requiredSpace(true, hop.newRing, o);
            if (outputCredits(o, 0) >= need) {
                c = {v, o, 0, true};
                return true;
            }
        }
    }
    return false;
}

void
CrossbarRouter::saStage(sim::Cycle now)
{
    if (totalFlits_ == 0)
        return;

    // Each input's candidate sets its requester bit in its output's
    // request word, and out_pending marks the outputs holding one, so
    // the arbitration loop below visits only contested outputs —
    // usually one — in ascending order.
    unsigned requesters = 0;
    std::uint64_t out_pending = 0;
    for (unsigned p = 0; p < params_.ports; ++p) {
        Candidate& c = saCand_[p];
        if (!pickCandidate(p, c))
            continue;
        assert(c.outPort != p && "u-turn in route");
        ++requesters;
        saReqs_[c.outPort] |= std::uint64_t{1} << saRequester(p, c.outPort);
        out_pending |= std::uint64_t{1} << c.outPort;
    }
    unsigned granted = 0;

    for (; out_pending != 0; out_pending &= out_pending - 1) {
        const auto o = static_cast<unsigned>(std::countr_zero(out_pending));
        const std::uint64_t reqs = std::exchange(saReqs_[o], 0);
        // A port-stall fault leaves the ST latch occupied; don't
        // arbitrate for an output that can't accept a new flit.
        if (latched_ >> o & 1)
            continue;

        const ArbitrationResult res = saArb_[o]->arbitrate({&reqs, 1});
        assert(res.winner >= 0);
        bus_.emit({sim::EventType::Arbitration, node(),
                   static_cast<int>(o), res.deltaReq, res.deltaPri,
                   now});

        // Undo the u-turn-free requester mapping.
        unsigned p = static_cast<unsigned>(res.winner);
        if (p >= o)
            ++p;
        const Candidate& c = saCand_[p];
        VcState& st = vcStateAt(p, c.vc);

        if (c.claimOnGrant) {
            // Wormhole: the head claims the output for the packet.
            assert(!outVcBusy_[vcIndex(o, c.outVc)]);
            const RouteHop& hop = fifoAt(p, c.vc).front().routeHop();
            st.phase = VcState::Phase::Active;
            st.outPort = hop.port;
            st.outVc = static_cast<std::uint8_t>(c.outVc);
            st.newRing = hop.newRing;
            outVcBusy_[vcIndex(o, c.outVc)] = true;
        }

        StEntry& slot = stLatch_[o];
        fifoAt(p, c.vc).readInto(slot.flit, now);
        slot.inPort = p;
        latched_ |= std::uint64_t{1} << o;
        --portFlits_[p];
        --totalFlits_;
        outputCredits_[o]->consume(c.outVc);
        sendCreditUpstream(p, c.vc, now);

        Flit& flit = slot.flit;
        flit.vc = static_cast<std::uint8_t>(c.outVc);
        if (flit.hop + 1 < flit.packet->route.size())
            ++flit.hop;

        if (flit.tail) {
            outVcBusy_[vcIndex(o, st.outVc)] = false;
            st.reset();
        }
        rrNextVc_[p] = (c.vc + 1) % params_.vcs;
        ++granted;
    }
    saStalls_ += requesters - granted;
}

void
CrossbarRouter::vaStage(sim::Cycle now)
{
    if (totalFlits_ == 0)
        return;
    const unsigned ports = params_.ports;
    const unsigned vcs = params_.vcs;
    const std::size_t words = vaWords_;

    // 1. Heads newly at the front of their FIFOs enter WaitingVc, and
    // 2. each waiting input VC bids for one free output VC of its
    //    class: its requester bit goes into that (output port, output
    //    VC)'s request set, and into the output's new-ring set when
    //    the head enters a new ring there.
    //
    //    Bubble mode (slot-granular virtual cut-through): a head may
    //    only be allocated a *completely empty* downstream VC (atomic
    //    VC allocation — the whole packet fits, VCT), and entering a
    //    new ring additionally demands that a second downstream VC be
    //    empty, so every ring always retains a free packet-slot
    //    bubble. This is deadlock-free on tori without splitting the
    //    VCs into dateline classes.
    const bool bubble = params_.deadlock == DeadlockMode::Bubble;
    std::uint64_t out_pending = 0;
    for (unsigned p = 0; p < ports; ++p) {
        if (portFlits_[p] == 0)
            continue;
        for (unsigned v = 0; v < vcs; ++v) {
            VcState& st = vcStateAt(p, v);
            const FlitFifo& fifo = fifoAt(p, v);
            if (st.phase == VcState::Phase::Idle && !fifo.empty() &&
                fifo.front().head) {
                const RouteHop& hop = fifo.front().routeHop();
                assert(hop.port != p && "u-turn in route");
                st.phase = VcState::Phase::WaitingVc;
                st.outPort = hop.port;
                st.vcClass = hop.vcClass;
                st.newRing = hop.newRing;
            }
            if (st.phase != VcState::Phase::WaitingVc)
                continue;
            const auto [first, last] = classVcRange(st.vcClass);
            const unsigned span = last - first;
            assert(span > 0);
            const unsigned o = st.outPort;
            for (unsigned k = 0; k < span; ++k) {
                const unsigned ov = first + (vaScan_[o] + k) % span;
                if (outVcBusy_[vcIndex(o, ov)])
                    continue;
                if (bubble && !isLocalPort(o) &&
                    !outputCredits_[o]->empty(ov)) {
                    continue;
                }
                const unsigned r = vaRequester(p, v, o);
                const std::uint64_t bit = std::uint64_t{1} << (r % 64);
                vaReqs_[vcIndex(o, ov) * words + r / 64] |= bit;
                if (st.newRing)
                    vaNewRing_[o * words + r / 64] |= bit;
                out_pending |= std::uint64_t{1} << o;
                break;
            }
        }
    }

    // Downstream packet-slots still free at output @p o: completely
    // empty VCs not already reserved by an earlier grant (busy flags
    // are updated live as this cycle's grants land).
    const auto free_slots = [&](unsigned o) {
        unsigned n = 0;
        for (unsigned ov = 0; ov < vcs; ++ov) {
            if (!outVcBusy_[vcIndex(o, ov)] &&
                outputCredits_[o]->empty(ov)) {
                ++n;
            }
        }
        return n;
    };

    // 3. Arbitrate each contested output VC, enforcing the bubble
    //    slot budget against grants already made this cycle, and
    //    clear the request words behind.
    for (; out_pending != 0; out_pending &= out_pending - 1) {
        const auto o = static_cast<unsigned>(std::countr_zero(out_pending));
        const std::span<std::uint64_t> new_ring(&vaNewRing_[o * words],
                                                words);
        bool granted_any = false;
        for (unsigned ov = 0; ov < vcs; ++ov) {
            const std::span<std::uint64_t> reqs(
                &vaReqs_[vcIndex(o, ov) * words], words);
            std::uint64_t any = 0;
            for (const std::uint64_t r : reqs)
                any |= r;
            if (any != 0 && bubble && !isLocalPort(o)) {
                // Target slot must still be free, and ring entries
                // must leave a bubble behind.
                const unsigned remaining = free_slots(o);
                any = 0;
                for (std::size_t k = 0; k < words; ++k) {
                    if (remaining < 2)
                        reqs[k] &= remaining == 0 ? 0 : ~new_ring[k];
                    any |= reqs[k];
                }
            }
            if (any == 0)
                continue;
            const ArbitrationResult res =
                vaArb_[vcIndex(o, ov)]->arbitrate(reqs);
            std::ranges::fill(reqs, 0);
            assert(res.winner >= 0);
            bus_.emit({sim::EventType::VcAllocation, node(),
                       static_cast<int>(o * vcs + ov), res.deltaReq,
                       res.deltaPri, now});

            // Undo the requester mapping.
            const unsigned w = static_cast<unsigned>(res.winner);
            unsigned p = w / vcs;
            const unsigned v = w % vcs;
            if (p >= o)
                ++p;
            VcState& st = vcStateAt(p, v);
            assert(st.phase == VcState::Phase::WaitingVc);
            st.phase = VcState::Phase::Active;
            st.outVc = static_cast<std::uint8_t>(ov);
            outVcBusy_[vcIndex(o, ov)] = true;
            granted_any = true;
        }
        std::ranges::fill(new_ring, 0);
        if (granted_any)
            vaScan_[o] = (vaScan_[o] + 1) % vcs;
    }
}

void
CrossbarRouter::bwStage(sim::Cycle now)
{
    for (std::uint64_t m = std::exchange(flitInputs_, 0); m != 0;
         m &= m - 1) {
        const auto p = static_cast<unsigned>(std::countr_zero(m));
        // Screen the flit in its channel slot, then move it straight
        // into its FIFO slot.
        Flit& flit = inLinks_[p]->consume();
        if (faultHooks_ &&
            screenArrival(p, flit, now) == ArrivalAction::Discard) {
            continue;
        }
        assert(flit.vc < params_.vcs);
        assert(!fifoAt(p, flit.vc).full() &&
               "credit discipline violated: buffer overflow");
        fifoAt(p, flit.vc).write(std::move(flit), now);
        ++portFlits_[p];
        ++totalFlits_;
        ++flitsArrived_;
    }
}

} // namespace orion::router
