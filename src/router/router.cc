#include "router/router.hh"

#include <bit>
#include <cassert>
#include <utility>

namespace orion::router {

Router::Router(std::string name, int node, const RouterParams& params,
               sim::EventBus& bus)
    : sim::Module(std::move(name), node),
      params_(params),
      bus_(bus),
      inLinks_(params.ports, nullptr),
      creditReturnLinks_(params.ports, nullptr),
      outLinks_(params.ports, nullptr),
      creditInLinks_(params.ports, nullptr),
      outputCredits_(params.ports)
{
    assert(params.ports >= 2);
    assert(params.ports <= 64 && "per-port masks are 64-bit words");
    assert(params.vcs >= 1);
    assert(params.bufferDepth >= 1);
    assert(params.flitBits >= 1);
    assert(params.packetLength >= 1);
    // Flit-granular bubble (wormhole, CB) needs room for two packets
    // in one buffer; slot-granular bubble (VC routers, vcs >= 2) only
    // needs each VC to hold one whole packet. The common lower bound:
    assert(params.deadlock != DeadlockMode::Bubble ||
           params.bufferDepth >= params.packetLength);
    assert(params.deadlock != DeadlockMode::Bubble || params.vcs >= 2 ||
           params.bufferDepth >= 2 * params.packetLength);
    assert(params.deadlock != DeadlockMode::Dateline || params.vcs >= 2);
}

void
Router::connectInput(unsigned port, FlitLink* in,
                     CreditLink* credit_return)
{
    assert(port < params_.ports);
    inLinks_[port] = in;
    creditReturnLinks_[port] = credit_return;
    if (in)
        in->setWakeFlag(&flitInputs_, std::uint64_t{1} << port);
}

void
Router::connectOutput(unsigned port, FlitLink* out,
                      CreditLink* credit_in, unsigned downstream_vcs,
                      unsigned downstream_depth, bool unlimited)
{
    assert(port < params_.ports);
    outLinks_[port] = out;
    creditInLinks_[port] = credit_in;
    if (credit_in)
        credit_in->setWakeFlag(&creditInputs_, std::uint64_t{1} << port);
    outputCredits_[port] = std::make_unique<CreditCounter>(
        downstream_vcs, unlimited ? 1 : downstream_depth, unlimited);
}

const CreditCounter*
Router::outputCreditCounter(unsigned port) const
{
    assert(port < params_.ports);
    return outputCredits_[port].get();
}

void
Router::debugCorruptCredit(unsigned port, unsigned vc)
{
    assert(port < params_.ports && outputCredits_[port]);
    outputCredits_[port]->debugCorruptCredit(vc);
}

void
Router::setFaultHooks(FaultHooks* hooks)
{
    faultHooks_ = hooks;
    if (faultHooks_ && dropState_.empty()) {
        dropState_.assign(params_.ports,
                          std::vector<DropState>(params_.vcs));
        pendingCredits_.assign(params_.ports, {});
    }
}

std::size_t
Router::creditsInFlight() const
{
    std::size_t n = 0;
    for (const auto& counter : outputCredits_) {
        if (!counter || counter->unlimited())
            continue;
        for (unsigned v = 0; v < counter->vcs(); ++v)
            n += counter->depth(v) - counter->available(v);
    }
    return n;
}

std::size_t
Router::pendingCreditReturns(unsigned port, unsigned vc) const
{
    if (!faultHooks_)
        return 0;
    std::size_t n = 0;
    for (const Credit& c : pendingCredits_[port])
        if (c.vc == vc)
            ++n;
    return n;
}

void
Router::sendCreditUpstream(unsigned port, unsigned vc, sim::Cycle now)
{
    auto* ch = creditReturnLinks_[port];
    if (!ch)
        return;
    const Credit credit{static_cast<std::uint8_t>(vc)};
    // The credit wire carries one credit per cycle. Fault-free
    // operation frees at most one slot per port per cycle, but a fault
    // discard can coincide with a regular dequeue on the same port;
    // queue the overflow and keep per-port FIFO order.
    if (faultHooks_ &&
        (!pendingCredits_[port].empty() || ch->staged())) {
        pendingCredits_[port].push_back(credit);
        ++pendingCreditTotal_;
        return;
    }
    ch->send(credit, bus_, now);
}

void
Router::drainPendingCredits(sim::Cycle now)
{
    if (!faultHooks_)
        return;
    for (unsigned p = 0; p < params_.ports; ++p) {
        auto& q = pendingCredits_[p];
        if (q.empty())
            continue;
        auto* ch = creditReturnLinks_[p];
        if (!ch || ch->staged())
            continue;
        ch->send(q.front(), bus_, now);
        q.pop_front();
        --pendingCreditTotal_;
    }
}

void
Router::armDropUntilTail(unsigned port, unsigned vc,
                         std::uint64_t packet_id, unsigned attempt)
{
    if (!faultHooks_)
        return;
    DropState& drop = dropState_[port][vc];
    drop.active = true;
    drop.packetId = packet_id;
    drop.attempt = attempt;
}

void
Router::discardArrival(unsigned port, Flit& flit, sim::Cycle now)
{
    // The flit did arrive (link energy was spent) but is dropped
    // before buffering: ledger it so conservation still proves out,
    // and return the buffer slot the upstream consumed for it.
    ++flitsArrived_;
    ++flitsDiscarded_;
    sendCreditUpstream(port, flit.vc, now);
    faultHooks_->onFlitDiscarded(flit, now);
    // The flit stays in its channel slot until the slot is written
    // again; release its packet now.
    flit.packet.reset();
}

Router::ArrivalAction
Router::screenArrival(unsigned port, Flit& flit, sim::Cycle now)
{
    DropState& drop = dropState_[port][flit.vc];
    // 1. Remainder of a killed worm attempt: discard until its tail
    //    (or its upstream-synthesized poison tail) closes the state.
    //    Packets are contiguous per (port, VC) and flit metadata is
    //    never corrupted, so matching (id, attempt) is exact.
    if (drop.active && drop.packetId == flit.packet->id &&
        drop.attempt == flit.packet->attempt) {
        if (flit.tail)
            drop.active = false;
        discardArrival(port, flit, now);
        return ArrivalAction::Discard;
    }
    // 2. Poison tails carry a stale CRC by construction and must
    //    propagate to close downstream worm state: deliver unchecked.
    if (flit.poison)
        return ArrivalAction::Deliver;
    // 3. CRC check (stamped once at the source; payload is immutable
    //    along a fault-free path).
    if (flit.linkCrc != payloadChecksum(flit.payload)) {
        faultHooks_->onPacketKilled(flit.packet, now);
        if (!flit.tail) {
            drop.active = true;
            drop.packetId = flit.packet->id;
            drop.attempt = flit.packet->attempt;
        }
        if (flit.head) {
            // Nothing of the worm is buffered downstream of here yet:
            // drop the head outright and swallow the rest as they
            // arrive.
            discardArrival(port, flit, now);
            return ArrivalAction::Discard;
        }
        // Body/tail corrupted mid-worm: convert it into a poison tail
        // (1-for-1 slot replacement) so every downstream hop's VC and
        // buffer state for this worm closes normally.
        flit.poison = true;
        flit.tail = true;
        return ArrivalAction::Deliver;
    }
    return ArrivalAction::Deliver;
}

void
Router::receiveCredits()
{
    for (std::uint64_t m = std::exchange(creditInputs_, 0); m != 0;
         m &= m - 1) {
        const auto p = static_cast<unsigned>(std::countr_zero(m));
        outputCredits_[p]->restore(creditInLinks_[p]->read().vc);
    }
}

bool
Router::isLocalPort(unsigned port) const
{
    return port == params_.localPort();
}

unsigned
Router::requiredSpace(bool is_head, bool new_ring,
                      unsigned out_port) const
{
    if (!is_head || params_.deadlock != DeadlockMode::Bubble ||
        isLocalPort(out_port)) {
        return 1;
    }
    return new_ring ? 2 * params_.packetLength : params_.packetLength;
}

} // namespace orion::router
