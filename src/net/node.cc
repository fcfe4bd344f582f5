#include "net/node.hh"

#include <cassert>

#include "net/health.hh"

namespace orion::net {

Node::Node(std::string name, int node, const Topology& topo,
           const DorRouting& routing, TrafficGenerator& traffic,
           SharedState& shared, unsigned packet_length,
           unsigned flit_bits, unsigned router_vcs,
           unsigned buffer_depth, std::uint64_t seed,
           sim::EventBus& bus, InjectionPolicy policy)
    : sim::Module(std::move(name), node),
      topo_(topo),
      routing_(routing),
      traffic_(traffic),
      shared_(shared),
      bus_(bus),
      rng_(seed ^ (0x5bd1e995u * static_cast<std::uint64_t>(node + 1))),
      packetLength_(packet_length),
      flitBits_(flit_bits),
      routerVcs_(router_vcs),
      policy_(policy),
      injectionCredits_(std::make_unique<router::CreditCounter>(
          router_vcs, buffer_depth))
{
    assert(packet_length >= 1 && flit_bits >= 1 && router_vcs >= 1);
}

void
Node::connectInjection(router::FlitLink* to_router,
                       router::CreditLink* credit_from_router)
{
    toRouter_ = to_router;
    creditFromRouter_ = credit_from_router;
}

void
Node::connectEjection(router::FlitLink* from_router)
{
    fromRouter_ = from_router;
}

void
Node::setFaultInjector(FaultInjector* injector)
{
    injector_ = injector;
}

void
Node::setHealthMonitor(HealthMonitor* health)
{
    health_ = health;
}

void
Node::debugInjectPacket(router::PacketRef pkt)
{
    assert(pkt && pkt->length >= 1 && !pkt->route.empty());
    ++packetsInjected_;
    sourceQueue_.push_back(std::move(pkt));
}

power::BitVec
Node::randomPayload()
{
    power::BitVec v(flitBits_);
    for (std::size_t w = 0; w < v.wordCount(); ++w)
        v.setWord(w, rng_.next());
    return v;
}

void
Node::cycle(sim::Cycle now)
{
    // Credits freed by the router's local input buffer.
    if (creditFromRouter_ && creditFromRouter_->valid()) {
        const router::Credit c = creditFromRouter_->read();
        injectionCredits_->restore(c.vc);
    }

    ejectStage(now);
    rerouteStage(now);
    retransmitStage(now);
    generateStage(now);
    injectStage(now);
}

void
Node::dropUnreachable(const router::PacketInfo& pkt)
{
    ++packetsUnreachable_;
    if (pkt.sample)
        ++shared_.sampleLost;
}

bool
Node::healRoute(router::PacketRef& pkt)
{
    if (health_->routeHealthy(node(), pkt->route))
        return true;
    auto detour = health_->buildDetour(node(), pkt->dst);
    if (!detour)
        return false;
    // PacketInfo is shared immutably with in-flight flits; replace the
    // route on a private clone.
    router::PacketRef clone = shared_.packetPool.acquire();
    clone.edit() = *pkt;
    clone.edit().route = std::move(*detour);
    pkt = std::move(clone);
    health_->noteReroute();
    return true;
}

void
Node::rerouteStage(sim::Cycle now)
{
    (void)now;
    if (!health_ || healthEpoch_ == health_->epoch())
        return;
    healthEpoch_ = health_->epoch();

    // Rebuild the routes of queued packets that now cross a dead link
    // (or whose detour is obsolete after a repair, which routeHealthy
    // leaves alone — only broken routes are rebuilt). The source-queue
    // head is skipped while mid-injection: its in-flight flits
    // reference the current route.
    for (std::size_t k = 0; k < sourceQueue_.size();) {
        if (k == 0 && injectSeq_ > 0) {
            ++k;
            continue;
        }
        if (healRoute(sourceQueue_[k])) {
            ++k;
            continue;
        }
        dropUnreachable(*sourceQueue_[k]);
        sourceQueue_.erase(sourceQueue_.begin() +
                           static_cast<std::ptrdiff_t>(k));
    }
    for (auto it = retryQueue_.begin(); it != retryQueue_.end();) {
        if (healRoute(it->second)) {
            ++it;
            continue;
        }
        dropUnreachable(*it->second);
        it = retryQueue_.erase(it);
    }
}

void
Node::ejectStage(sim::Cycle now)
{
    if (!fromRouter_ || !fromRouter_->valid())
        return;
    const router::Flit flit = fromRouter_->read();
    assert(flit.packet->dst == node() && "flit ejected at wrong node");
    ++flitsEjected_;
    ++flitsEjectedTotal_;
    // A poison tail closes a killed worm; the packet attempt it ends
    // never completes (the source retransmits), so it must not count
    // as a packet ejection or a latency sample.
    if (flit.poison)
        return;
    if (!flit.tail)
        return;

    ++packetsEjected_;
    const auto latency =
        static_cast<double>(now - flit.packet->createdAt);
    if (flit.packet->sample) {
        ++shared_.sampleEjected;
        shared_.sampleLatency.add(latency);
        shared_.sampleLatencyHist.add(latency);
    }
    bus_.emit({sim::EventType::PacketEjected, node(), 0,
               static_cast<std::uint32_t>(latency),
               flit.packet->sample ? 1u : 0u, now});
}

void
Node::retransmitStage(sim::Cycle now)
{
    if (!injector_)
        return;

    for (const Nack& nack : injector_->takeNacks(node())) {
        const auto& pkt = nack.packet;
        // attempts_[] lookup default-constructs to 0 for first-time
        // ids, matching PacketInfo::attempt of original sends.
        unsigned& current = attempts_[pkt->id];
        if (pkt->attempt != current)
            continue; // stale duplicate for a superseded attempt

        const FaultConfig& cfg = injector_->config();
        const unsigned next = current + 1;
        ++current; // later NACKs for the killed attempt are now stale
        if (next > cfg.retryLimit) {
            ++packetsLost_;
            if (pkt->sample)
                ++shared_.sampleLost;
            injector_->recordPacketLost(node(), pkt->id, now);
            continue;
        }

        // Retransmit the same logical packet (same id, createdAt,
        // sample flag, route — recovery time counts toward latency)
        // as a fresh worm with a bumped attempt number, after a
        // backoff that doubles per attempt.
        router::PacketRef resend = shared_.packetPool.acquire();
        resend.edit() = *pkt;
        resend.edit().attempt = next;
        // With rerouting on, don't retransmit into a dead link: build
        // a surviving-graph detour now, or fail fast as unreachable
        // when the destination is partitioned.
        if (health_ && health_->degraded() && !healRoute(resend)) {
            dropUnreachable(*resend);
            continue;
        }
        const sim::Cycle delay = cfg.retryBackoffCycles
                                 << (next - 1);
        retryQueue_.emplace_back(now + delay, std::move(resend));
        injector_->recordRetransmission(node(), pkt->id, now);
    }

    // Release retries whose backoff expired, preserving scheduling
    // order. push_back (never push_front): the source queue's head
    // may be mid-injection (injectSeq_ > 0) and must not be displaced.
    for (auto it = retryQueue_.begin(); it != retryQueue_.end();) {
        if (it->first <= now) {
            sourceQueue_.push_back(std::move(it->second));
            it = retryQueue_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Node::generateStage(sim::Cycle now)
{
    const std::optional<int> dst =
        traffic_.maybeInject(node(), now, rng_);
    if (!dst)
        return;

    // Pooled allocation: a recycled PacketInfo keeps its old field
    // values (and, usefully, its route vector's capacity), so every
    // field is assigned here.
    router::PacketRef pkt = shared_.packetPool.acquire();
    router::PacketInfo& info = pkt.edit();
    info.id = shared_.nextPacketId++;
    info.src = node();
    info.dst = *dst;
    info.createdAt = now;
    info.length = packetLength_;
    info.sample = false;
    info.attempt = 0;
    if (shared_.sampling && shared_.sampleRemaining > 0) {
        info.sample = true;
        --shared_.sampleRemaining;
        ++shared_.sampleInjected;
        if (shared_.sampleRemaining == 0)
            shared_.sampling = false;
    }
    // Always draw the normal DOR route first so the RNG stream is
    // identical with and without rerouting enabled; only then check
    // it against the surviving topology.
    routing_.routeInto(node(), *dst, rng_, info.route);
    bool unreachable = false;
    if (health_ && health_->degraded() &&
        !health_->routeHealthy(node(), info.route)) {
        auto detour = health_->buildDetour(node(), *dst);
        if (detour) {
            info.route = std::move(*detour);
            health_->noteReroute();
        } else {
            unreachable = true;
        }
    }

    ++packetsInjected_;
    bus_.emit({sim::EventType::PacketInjected, node(), 0,
               static_cast<std::uint32_t>(pkt->route.size()),
               pkt->sample ? 1u : 0u, now});
    if (unreachable) {
        // Fail fast: the destination is partitioned. The packet is
        // closed immediately (never queued), settling the sample and
        // in-flight accounting without burning the retry budget.
        dropUnreachable(*pkt);
        return;
    }
    sourceQueue_.push_back(std::move(pkt));
}

void
Node::injectStage(sim::Cycle now)
{
    if (!toRouter_ || sourceQueue_.empty())
        return;

    const auto& pkt = sourceQueue_.front();
    const bool is_head = injectSeq_ == 0;

    if (is_head) {
        if (policy_ == InjectionPolicy::SingleVc) {
            if (injectionCredits_->available(0) == 0)
                return;
            injectVc_ = 0;
        } else {
            // Pick the local input VC with the most credits; stall if
            // all are exhausted.
            unsigned best_vc = 0;
            unsigned best = 0;
            for (unsigned v = 0; v < routerVcs_; ++v) {
                const unsigned avail = injectionCredits_->available(v);
                if (avail > best) {
                    best = avail;
                    best_vc = v;
                }
            }
            if (best == 0)
                return;
            injectVc_ = best_vc;
        }
    } else if (injectionCredits_->available(injectVc_) == 0) {
        return;
    }

    router::Flit flit;
    flit.packet = pkt;
    flit.head = is_head;
    // pkt->length (not packetLength_): debug-injected packets may
    // carry a different length than the traffic process generates.
    flit.tail = injectSeq_ + 1 == pkt->length;
    flit.seq = injectSeq_;
    flit.hop = 0;
    flit.vc = static_cast<std::uint8_t>(injectVc_);
    flit.payload = randomPayload();
    // Stamp the end-to-end CRC once at the source: the payload is
    // immutable along a fault-free path, so any mismatch downstream
    // is link corruption.
    if (injector_)
        flit.linkCrc = router::payloadChecksum(flit.payload);

    injectionCredits_->consume(injectVc_);
    toRouter_->send(std::move(flit), bus_, now);
    ++flitsInjectedTotal_;

    if (++injectSeq_ == pkt->length) {
        injectSeq_ = 0;
        sourceQueue_.pop_front();
    }
}

} // namespace orion::net
