#include "router/central_buffer_router.hh"

#include <bit>
#include <cassert>
#include <utility>

namespace orion::router {

CentralBufferRouter::CentralBufferRouter(
    std::string name, int node, const RouterParams& params,
    const CentralBufferRouterParams& cb, sim::EventBus& bus)
    : Router(std::move(name), node, params, bus),
      cb_(cb),
      currentWrite_(params.ports, nullptr),
      freeSlots_(cb.capacityFlits),
      rowContents_(cb.capacityFlits * ((params.flitBits + 63) / 64), 0),
      writeRow_(0)
{
    assert(params.vcs == 1 && "CB router input buffers are plain FIFOs");
    assert(cb.capacityFlits >= params.packetLength);
    assert(cb.writePorts >= 1 && cb.readPorts >= 1);

    inputFifos_.reserve(params.ports);
    for (unsigned p = 0; p < params.ports; ++p) {
        inputFifos_.emplace_back(bus, node, static_cast<int>(p),
                                 params.bufferDepth, params.flitBits);
    }
    outputQueues_.resize(params.ports);

    writeArb_.reserve(cb.writePorts);
    for (unsigned w = 0; w < cb.writePorts; ++w)
        writeArb_.push_back(makeArbiter(params.arbiterKind,
                                        params.ports));
    readArb_.reserve(cb.readPorts);
    for (unsigned r = 0; r < cb.readPorts; ++r)
        readArb_.push_back(makeArbiter(params.arbiterKind,
                                       params.ports));

    lastWritten_.assign(cb.writePorts, power::BitVec(params.flitBits));
    lastRead_.assign(cb.readPorts, power::BitVec(params.flitBits));
}

const FlitFifo&
CentralBufferRouter::inputFifo(unsigned port) const
{
    assert(port < params_.ports);
    return inputFifos_[port];
}

std::size_t
CentralBufferRouter::outputQueueLength(unsigned port) const
{
    assert(port < params_.ports);
    return outputQueues_[port].size();
}

std::size_t
CentralBufferRouter::bufferedFlits() const
{
    std::size_t n = 0;
    for (const auto& fifo : inputFifos_)
        n += fifo.size();
    return n;
}

std::size_t
CentralBufferRouter::pooledFlits() const
{
    std::size_t n = 0;
    for (const auto& q : outputQueues_)
        for (const auto& pkt : q)
            n += pkt->flits.size();
    return n;
}

std::size_t
CentralBufferRouter::reservedSlots() const
{
    std::size_t n = 0;
    for (const auto& q : outputQueues_) {
        for (const auto& pkt : q) {
            if (!pkt->complete)
                n += pkt->length - pkt->written;
        }
    }
    return n;
}

std::size_t
CentralBufferRouter::residentFlits() const
{
    return bufferedFlits() + pooledFlits();
}

void
CentralBufferRouter::cycle(sim::Cycle now)
{
    // Skip-quiescent fast path (see CrossbarRouter::cycle): nothing
    // buffered, pooled or admitted, no deferred credits, and no
    // readable input message means every stage is a no-op. The
    // emptiness walks are O(ports) loads on an idle router — far
    // cheaper than the per-stage request-vector setup they replace.
    if ((flitInputs_ | creditInputs_) == 0 && pendingCreditTotal_ == 0 &&
        quiescent()) {
        return;
    }
    receiveCredits();
    drainPendingCredits(now);
    readStage(now);
    writeStage(now);
    bwStage(now);
}

bool
CentralBufferRouter::quiescent() const
{
    for (const auto& fifo : inputFifos_)
        if (!fifo.empty())
            return false;
    // Empty output queues imply no pooled flits and no admitted
    // packets mid-write (currentWrite_ points into queue entries).
    for (const auto& q : outputQueues_)
        if (!q.empty())
            return false;
    return true;
}

void
CentralBufferRouter::readStage(sim::Cycle now)
{
    const unsigned ports = params_.ports;
    // Outputs already served by an earlier read port, one bit each.
    std::uint64_t used = 0;

    for (unsigned r = 0; r < cb_.readPorts; ++r) {
        std::uint64_t reqs = 0;
        for (unsigned o = 0; o < ports; ++o) {
            if ((used >> o & 1) || outputQueues_[o].empty())
                continue;
            if (faultHooks_ && faultHooks_->portStalled(node(), o, now))
                continue;
            const CbPacket& pkt = *outputQueues_[o].front();
            if (pkt.flits.empty())
                continue;
            const auto& [flit, ready_at] = pkt.flits.front();
            if (ready_at > now)
                continue;
            const unsigned need = requiredSpace(
                flit.head,
                flit.head ? flit.routeHop().newRing : false, o);
            if (outputCredits(o, 0) < need)
                continue;
            reqs |= std::uint64_t{1} << o;
        }
        if (reqs == 0)
            continue;

        const ArbitrationResult res = readArb_[r]->arbitrate({&reqs, 1});
        assert(res.winner >= 0);
        const auto o = static_cast<unsigned>(res.winner);
        used |= std::uint64_t{1} << o;
        bus_.emit({sim::EventType::Arbitration, node(),
                   static_cast<int>(ports + cb_.writePorts + r),
                   res.deltaReq, res.deltaPri, now});

        CbPacket& pkt = *outputQueues_[o].front();
        Flit flit = std::move(pkt.flits.front().first);
        pkt.flits.pop_front();
        ++freeSlots_;

        const unsigned delta =
            power::hammingDistance(flit.payload, lastRead_[r]);
        lastRead_[r] = flit.payload;
        bus_.emit({sim::EventType::CentralBufferRead, node(),
                   static_cast<int>(r), delta, 0, now});

        outputCredits_[o]->consume(0);
        flit.vc = 0;
        if (flit.hop + 1 < flit.packet->route.size())
            ++flit.hop;
        const bool was_tail = flit.tail;

        assert(outLinks_[o] && "flit routed to unconnected output");
        outLinks_[o]->send(std::move(flit), bus_, now);
        ++flitsForwarded_;

        if (was_tail) {
            assert(pkt.complete || pkt.flits.empty());
            outputQueues_[o].pop_front();
        }
    }
}

void
CentralBufferRouter::writeStage(sim::Cycle now)
{
    const unsigned ports = params_.ports;
    // Eligibility is re-evaluated per write port: an earlier port's
    // admission shrinks the pool, which can disqualify a later head.
    std::uint64_t granted = 0;
    const auto eligible = [&](unsigned p) {
        if ((granted >> p & 1) || inputFifos_[p].empty())
            return false;
        const Flit& front = inputFifos_[p].front();
        if (front.head) {
            // Virtual cut-through admission: room for the whole
            // packet.
            assert(!currentWrite_[p]);
            return freeSlots_ >= front.packet->length;
        }
        return currentWrite_[p] != nullptr;
    };

    for (unsigned w = 0; w < cb_.writePorts; ++w) {
        std::uint64_t reqs = 0;
        for (unsigned p = 0; p < ports; ++p)
            reqs |= static_cast<std::uint64_t>(eligible(p)) << p;
        if (reqs == 0)
            break;

        const ArbitrationResult res = writeArb_[w]->arbitrate({&reqs, 1});
        assert(res.winner >= 0);
        const auto p = static_cast<unsigned>(res.winner);
        granted |= std::uint64_t{1} << p;
        bus_.emit({sim::EventType::Arbitration, node(),
                   static_cast<int>(ports + w), res.deltaReq,
                   res.deltaPri, now});

        Flit flit = inputFifos_[p].read(now);
        sendCreditUpstream(p, 0, now);

        if (flit.head) {
            const unsigned o = flit.routeHop().port;
            assert(o != p && "u-turn in route");
            assert(freeSlots_ >= flit.packet->length);
            freeSlots_ -= flit.packet->length;
            auto pkt = std::make_unique<CbPacket>();
            pkt->length = flit.packet->length;
            currentWrite_[p] = pkt.get();
            outputQueues_[o].push_back(std::move(pkt));
        }
        CbPacket* pkt = currentWrite_[p];
        assert(pkt && "body flit with no admitted packet");
        ++pkt->written;

        const unsigned delta_bits =
            power::hammingDistance(flit.payload, lastWritten_[w]);
        // Flipped cells (delta_bc): the datum against the stale row.
        unsigned delta_bc = 0;
        const std::uint64_t* datum = flit.payload.data();
        const std::size_t words = flit.payload.wordCount();
        std::uint64_t* row = &rowContents_[writeRow_ * words];
        for (std::size_t k = 0; k < words; ++k) {
            delta_bc += static_cast<unsigned>(std::popcount(datum[k] ^ row[k]));
            row[k] = datum[k];
        }
        lastWritten_[w] = flit.payload;
        writeRow_ = (writeRow_ + 1) % cb_.capacityFlits;
        bus_.emit({sim::EventType::CentralBufferWrite, node(),
                   static_cast<int>(w), delta_bits, delta_bc, now});

        const bool was_tail = flit.tail;
        pkt->flits.emplace_back(std::move(flit),
                                now + cb_.pipelineLatency);
        if (was_tail) {
            // A poison tail can truncate a worm short of its admitted
            // length: release the pool slots the missing flits
            // reserved, or they leak for the rest of the run.
            if (pkt->written < pkt->length) {
                freeSlots_ += pkt->length - pkt->written;
                pkt->length = pkt->written;
            }
            pkt->complete = true;
            currentWrite_[p] = nullptr;
        }
    }
}

void
CentralBufferRouter::bwStage(sim::Cycle now)
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
        assert(!inputFifos_[p].full() &&
               "credit discipline violated: buffer overflow");
        inputFifos_[p].write(std::move(flit), now);
        ++flitsArrived_;
    }
}

} // namespace orion::router
