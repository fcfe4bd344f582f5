#include "router/vc_router.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <span>
#include <utility>

#include "base/check.hh"

namespace orion::router {

namespace {

std::uint64_t
bitOf(unsigned i)
{
    return std::uint64_t{1} << i;
}

/** Bits [0, n) set (n <= 64). */
std::uint64_t
lowBits(unsigned n)
{
    return n == 64 ? ~std::uint64_t{0} : bitOf(n) - 1;
}

/**
 * The first set bit of @p mask at or after bit @p start, wrapping to
 * bit 0, for which @p ok holds; -1 if there is none. Rotating right by
 * @p start lines the bits up in exactly that order (bit start first,
 * the bits below it last), so one countr_zero walk replaces a
 * (start + k) % n scan over every index.
 */
template <typename Pred>
int
firstSetFrom(std::uint64_t mask, unsigned start, Pred&& ok)
{
    for (std::uint64_t m = std::rotr(mask, static_cast<int>(start));
         m != 0; m &= m - 1) {
        const unsigned i =
            (static_cast<unsigned>(std::countr_zero(m)) + start) & 63u;
        if (ok(i))
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace

CrossbarRouter::CrossbarRouter(std::string name, int node,
                               const RouterParams& params,
                               sim::EventBus& bus, bool va_enabled)
    : Router(std::move(name), node, params, bus),
      vaEnabled_(va_enabled),
      xbar_(bus, node, params.ports, params.ports, params.flitBits),
      rrNextVc_(params.ports, 0),
      vaScan_(params.ports, 0),
      stLatch_(params.ports),
      saCand_(params.ports),
      saReqs_(params.ports, 0),
      vaWords_(Arbiter::wordsFor((params.ports - 1) * params.vcs)),
      vaReqs_(params.ports * params.vcs * vaWords_, 0),
      vaNewRing_(params.ports * vaWords_, 0)
{
    assert((va_enabled || params.vcs == 1) &&
           "wormhole routers have a single VC");
    assert(params.vcs <= 64 && "a port's VCs fit one 64-bit mask");

    const unsigned n_vcs = params.ports * params.vcs;
    fifos_.reserve(n_vcs);
    for (unsigned i = 0; i < n_vcs; ++i) {
        fifos_.emplace_back(bus, node, static_cast<int>(i),
                            params.bufferDepth, params.flitBits);
    }
    vcState_.resize(n_vcs);
    masks_.resize(params.ports);

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
    return (masks_[port].held & bitOf(vc)) != 0;
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
    if (fifo.empty())
        masks_[port].nonEmpty &= ~bitOf(vc);
    --totalFlits_;
}

void
CrossbarRouter::auditVcMasks() const
{
    // Recompute each word from the state it summarizes; a word that
    // disagrees is reported at its lowest differing bit.
    const auto expect = [&](std::uint64_t mask, std::uint64_t state,
                            unsigned port, const char* what) {
        const std::uint64_t diff = mask ^ state;
        ORION_AUDIT(diff == 0, "router " << name() << " port " << port
                                         << " vc " << std::countr_zero(diff)
                                         << ": " << what
                                         << " mask bit disagrees with "
                                            "the VC state");
    };
    // Ports <= 64 (Router asserts it); an array, so the audit
    // allocates nothing on the steady-state path it checks.
    std::array<std::uint64_t, 64> held{};
    for (unsigned p = 0; p < params_.ports; ++p) {
        std::uint64_t non_empty = 0;
        std::uint64_t active = 0;
        for (unsigned v = 0; v < params_.vcs; ++v) {
            if (!fifos_[vcIndex(p, v)].empty())
                non_empty |= bitOf(v);
            const VcState& st = vcState_[vcIndex(p, v)];
            if (st.phase != VcState::Phase::Active)
                continue;
            active |= bitOf(v);
            ORION_AUDIT((held[st.outPort] & bitOf(st.outVc)) == 0,
                        "router " << name() << " port " << p << " vc "
                                  << v << ": output " << +st.outPort
                                  << " vc " << +st.outVc
                                  << " is held by two VCs");
            held[st.outPort] |= bitOf(st.outVc);
        }
        expect(masks_[p].nonEmpty, non_empty, p, "non-empty");
        expect(masks_[p].active, active, p, "active");
    }
    for (unsigned o = 0; o < params_.ports; ++o)
        expect(masks_[o].held, held[o], o, "held output VC");
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
        masks_[st.outPort].held &= ~bitOf(st.outVc);
    masks_[port].active &= ~bitOf(vc);
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
        --totalFlits_;
        ++flitsDiscarded_;
        sendCreditUpstream(port, vc, now);
        faultHooks_->onFlitDiscarded(flit, now);
        if (saw_tail)
            break;
    }
    if (fifo.empty())
        masks_[port].nonEmpty &= ~bitOf(vc);
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

int
CrossbarRouter::freeOutputVc(unsigned o, unsigned cls) const
{
    const auto [first, last] = classVcRange(cls);
    const unsigned span = last - first;
    assert(span > 0);
    // The scan starts vaScan_[o] VCs into the class, modulo its span
    // (vaScan_[o] < vcs <= 2 * span + 1: at most two subtractions).
    unsigned start = vaScan_[o];
    while (start >= span)
        start -= span;
    const std::uint64_t free = ~masks_[o].held & lowBits(last) &
                               ~lowBits(first);
    // Bubble mode only allocates a completely empty downstream VC.
    const bool need_empty =
        params_.deadlock == DeadlockMode::Bubble && !isLocalPort(o);
    return firstSetFrom(free, first + start, [&](unsigned ov) {
        return !need_empty || outputCredits_[o]->empty(ov);
    });
}

bool
CrossbarRouter::pickCandidate(unsigned p, Candidate& c)
{
    const PortMasks& m = masks_[p];
    if (vaEnabled_) {
        // VC routers put forward only Active VCs (Idle and WaitingVc
        // ones are VA's) and do their bubble-rule space reservation at
        // VA (an empty VC was reserved for the whole packet), so SA
        // needs one credit and never looks at the flit.
        const auto has_credit = [&](unsigned v) {
            const VcState& st = vcStateAt(p, v);
            if (outputCredits(st.outPort, st.outVc) == 0)
                return false;
            c = {v, st.outPort, st.outVc, false};
            return true;
        };
        return firstSetFrom(m.nonEmpty & m.active, rrNextVc_[p],
                            has_credit) >= 0;
    }
    // Wormhole: an Active VC enforces the flit-granular bubble rule
    // here, and an Idle head claims its output at SA.
    return firstSetFrom(m.nonEmpty, rrNextVc_[p], [&](unsigned v) {
        const VcState& st = vcStateAt(p, v);
        const Flit& front = fifoAt(p, v).front();

        if (st.phase == VcState::Phase::Active) {
            if (outputCredits(st.outPort, st.outVc) <
                requiredSpace(front.head, st.newRing, st.outPort)) {
                return false;
            }
            c = {v, st.outPort, st.outVc, false};
            return true;
        }

        // Route setup and output claim happen at SA.
        if (st.phase != VcState::Phase::Idle || !front.head)
            return false;
        const RouteHop& hop = front.routeHop();
        const unsigned o = hop.port;
        assert(o != p && "u-turn in route");
        if ((masks_[o].held & bitOf(0)) != 0 ||
            outputCredits(o, 0) < requiredSpace(true, hop.newRing, o)) {
            return false;
        }
        c = {v, o, 0, true};
        return true;
    }) >= 0;
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
            assert((masks_[o].held & bitOf(c.outVc)) == 0);
            const RouteHop& hop = fifoAt(p, c.vc).front().routeHop();
            st.phase = VcState::Phase::Active;
            st.outPort = hop.port;
            st.outVc = static_cast<std::uint8_t>(c.outVc);
            st.newRing = hop.newRing;
            masks_[p].active |= bitOf(c.vc);
            masks_[o].held |= bitOf(c.outVc);
        }

        StEntry& slot = stLatch_[o];
        FlitFifo& fifo = fifoAt(p, c.vc);
        fifo.readInto(slot.flit, now);
        if (fifo.empty())
            masks_[p].nonEmpty &= ~bitOf(c.vc);
        slot.inPort = p;
        latched_ |= std::uint64_t{1} << o;
        --totalFlits_;
        outputCredits_[o]->consume(c.outVc);
        sendCreditUpstream(p, c.vc, now);

        Flit& flit = slot.flit;
        flit.vc = static_cast<std::uint8_t>(c.outVc);
        if (flit.hop + 1 < flit.packet->route.size())
            ++flit.hop;

        if (flit.tail) {
            masks_[o].held &= ~bitOf(st.outVc);
            masks_[p].active &= ~bitOf(c.vc);
            st.reset();
        }
        rrNextVc_[p] = c.vc + 1 == params_.vcs ? 0 : c.vc + 1;
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
        // Only buffered VCs not yet Active: Idle ones with a head at
        // the front, and the WaitingVc ones.
        for (std::uint64_t m = masks_[p].nonEmpty & ~masks_[p].active;
             m != 0; m &= m - 1) {
            const auto v = static_cast<unsigned>(std::countr_zero(m));
            VcState& st = vcStateAt(p, v);
            const FlitFifo& fifo = fifoAt(p, v);
            if (st.phase == VcState::Phase::Idle && fifo.front().head) {
                const RouteHop& hop = fifo.front().routeHop();
                assert(hop.port != p && "u-turn in route");
                st.phase = VcState::Phase::WaitingVc;
                st.outPort = hop.port;
                st.vcClass = hop.vcClass;
                st.newRing = hop.newRing;
            }
            if (st.phase != VcState::Phase::WaitingVc)
                continue;
            const unsigned o = st.outPort;
            const int ov = freeOutputVc(o, st.vcClass);
            if (ov < 0)
                continue;
            const unsigned r = vaRequester(p, v, o);
            const std::uint64_t bit = std::uint64_t{1} << (r % 64);
            vaReqs_[vcIndex(o, static_cast<unsigned>(ov)) * words +
                    r / 64] |= bit;
            if (st.newRing)
                vaNewRing_[o * words + r / 64] |= bit;
            out_pending |= std::uint64_t{1} << o;
        }
    }

    // Downstream packet-slots still free at output @p o: completely
    // empty VCs not already reserved by an earlier grant (held bits
    // are set live as this cycle's grants land).
    const auto free_slots = [&](unsigned o) {
        unsigned n = 0;
        for (std::uint64_t m = ~masks_[o].held & lowBits(vcs); m != 0;
             m &= m - 1) {
            if (outputCredits_[o]->empty(
                    static_cast<unsigned>(std::countr_zero(m)))) {
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
            masks_[p].active |= bitOf(v);
            masks_[o].held |= bitOf(ov);
            granted_any = true;
        }
        std::ranges::fill(new_ring, 0);
        if (granted_any)
            vaScan_[o] = vaScan_[o] + 1 == vcs ? 0 : vaScan_[o] + 1;
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
        const unsigned v = flit.vc;
        assert(v < params_.vcs);
        assert(!fifoAt(p, v).full() &&
               "credit discipline violated: buffer overflow");
        fifoAt(p, v).write(std::move(flit), now);
        masks_[p].nonEmpty |= bitOf(v);
        ++totalFlits_;
        ++flitsArrived_;
    }
}

} // namespace orion::router
