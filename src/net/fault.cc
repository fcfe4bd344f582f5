#include "net/fault.hh"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sim/telemetry.hh"

namespace orion::net {

namespace {

/** Salt domains for deriveSeed so the injector's streams never
 * collide with sweep-point or traffic streams. */
constexpr std::uint64_t kLinkStreamSalt = 0xFA17'0001ULL;
constexpr std::uint64_t kOutagePickSalt = 0xFA17'0002ULL;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= kFnvPrime;
    }
    return h;
}

} // namespace

bool
FaultConfig::enabled() const
{
    return linkBitErrorRate > 0.0 || !outages.empty() ||
           !stalls.empty();
}

void
FaultConfig::validate() const
{
    if (!(linkBitErrorRate >= 0.0 && linkBitErrorRate <= 1.0)) {
        throw std::invalid_argument(
            "fault: link bit-error rate must be in [0, 1], got " +
            std::to_string(linkBitErrorRate));
    }
    for (const OutageWindow& w : outages) {
        if (w.start >= w.end) {
            throw std::invalid_argument(
                "fault: outage window must have start < end, got [" +
                std::to_string(w.start) + ", " + std::to_string(w.end) +
                ")");
        }
    }
    for (const PortStallWindow& w : stalls) {
        if (w.start >= w.end) {
            throw std::invalid_argument(
                "fault: port-stall window must have start < end, got [" +
                std::to_string(w.start) + ", " + std::to_string(w.end) +
                ")");
        }
        if (w.node < 0) {
            throw std::invalid_argument(
                "fault: port-stall node must be >= 0, got " +
                std::to_string(w.node));
        }
    }
    if (retryBackoffCycles < 1) {
        throw std::invalid_argument(
            "fault: retry backoff must be >= 1 cycle");
    }
    if (retryLimit > 32) {
        throw std::invalid_argument(
            "fault: retry limit must be <= 32, got " +
            std::to_string(retryLimit));
    }
}

FaultInjector::FaultInjector(const FaultConfig& config,
                             std::uint64_t seed, unsigned flit_bits)
    : config_(config),
      seed_(seed),
      flitBits_(flit_bits),
      logHash_(kFnvOffset)
{
    assert(flit_bits >= 1);
    config_.validate();
    // A flit traversal is faulted iff at least one of its bits flips:
    // p = 1 - (1 - ber)^bits. Only one bit is actually flipped — one
    // flip already guarantees CRC detection and packet kill, and
    // keeping payload damage minimal keeps the link-energy delta of a
    // fault realistic rather than a full-width toggle.
    pFlit_ = config_.linkBitErrorRate <= 0.0
                 ? 0.0
                 : 1.0 - std::pow(1.0 - config_.linkBitErrorRate,
                                  static_cast<double>(flit_bits));
}

unsigned
FaultInjector::registerLink()
{
    assert(!finalized_ && "links must register before finalize");
    const auto id = static_cast<unsigned>(linkRngs_.size());
    linkRngs_.emplace_back(
        sim::deriveSeed(seed_, kLinkStreamSalt, id));
    return id;
}

void
FaultInjector::finalizeTopology(int num_nodes,
                                unsigned ports_per_router)
{
    assert(num_nodes > 0);
    for (const PortStallWindow& w : config_.stalls) {
        if (w.node >= num_nodes) {
            throw std::invalid_argument(
                "fault: port-stall node " + std::to_string(w.node) +
                " out of range (network has " +
                std::to_string(num_nodes) + " nodes)");
        }
        if (w.port >= ports_per_router) {
            throw std::invalid_argument(
                "fault: port-stall port " + std::to_string(w.port) +
                " out of range (routers have " +
                std::to_string(ports_per_router) + " ports)");
        }
    }
    sim::Rng pick(sim::deriveSeed(seed_, kOutagePickSalt, 0));
    for (std::size_t i = 0; i < config_.outages.size(); ++i) {
        OutageWindow& w = config_.outages[i];
        if (w.link < 0) {
            if (linkRngs_.empty()) {
                throw std::invalid_argument(
                    "fault: outage scheduled but the network has no "
                    "inter-router links");
            }
            w.link = static_cast<int>(pick.below(linkRngs_.size()));
        } else if (static_cast<std::size_t>(w.link) >=
                   linkRngs_.size()) {
            throw std::invalid_argument(
                "fault: outage link " + std::to_string(w.link) +
                " out of range (network has " +
                std::to_string(linkRngs_.size()) +
                " inter-router links)");
        }
    }
    nacksBySource_.assign(static_cast<std::size_t>(num_nodes), {});
    finalized_ = true;
}

void
FaultInjector::record(FaultKind kind, unsigned link,
                      const router::Flit& flit, sim::Cycle now)
{
    const FaultEvent ev{now, kind, link, flit.packet->id};
    ++eventCount_;
    logHash_ = fnv1a(logHash_, ev.cycle);
    logHash_ = fnv1a(logHash_, static_cast<std::uint64_t>(ev.kind));
    logHash_ = fnv1a(logHash_, ev.link);
    logHash_ = fnv1a(logHash_, ev.packetId);
    if (log_.size() < config_.maxLogEntries)
        log_.push_back(ev);
    if (tracer_) {
        tracer_->addInstant(kind == FaultKind::BitError
                                ? "fault_bit_error"
                                : "fault_link_outage",
                            -1, static_cast<int>(link), now,
                            ev.packetId);
    }
}

void
FaultInjector::onLinkTraversal(unsigned link, router::Flit& flit,
                               sim::Cycle now)
{
    assert(link < linkRngs_.size());
    sim::Rng& rng = linkRngs_[link];

    for (const OutageWindow& w : config_.outages) {
        if (w.link == static_cast<int>(link) && now >= w.start &&
            now < w.end) {
            // The link is down: model the lost flit as a guaranteed
            // corruption so the receiver detects and discards it —
            // conservation and credit accounting stay exact.
            const auto bit =
                static_cast<unsigned>(rng.below(flitBits_));
            flit.payload.setBit(bit, !flit.payload.bit(bit));
            ++flitsOutage_;
            record(FaultKind::LinkOutage, link, flit, now);
            return;
        }
    }

    if (pFlit_ > 0.0 && rng.chance(pFlit_)) {
        const auto bit = static_cast<unsigned>(rng.below(flitBits_));
        flit.payload.setBit(bit, !flit.payload.bit(bit));
        ++flitsCorrupted_;
        record(FaultKind::BitError, link, flit, now);
    }
}

bool
FaultInjector::portStalled(int node, unsigned port, sim::Cycle now)
{
    for (const PortStallWindow& w : config_.stalls) {
        if (w.node == node && w.port == port && now >= w.start &&
            now < w.end) {
            return true;
        }
    }
    return false;
}

void
FaultInjector::onPacketKilled(const router::PacketRef& p, sim::Cycle now)
{
    assert(finalized_);
    assert(p->src >= 0 &&
           static_cast<std::size_t>(p->src) < nacksBySource_.size());
    nacksBySource_[static_cast<std::size_t>(p->src)].push_back(
        Nack{p, now});
    if (tracer_)
        tracer_->addInstant("nack", p->src, 0, now, p->id);
}

void
FaultInjector::recordRetransmission(int node, std::uint64_t packet_id,
                                    sim::Cycle now)
{
    ++packetsRetransmitted_;
    if (tracer_)
        tracer_->addInstant("retransmit", node, 0, now, packet_id);
}

void
FaultInjector::recordPacketLost(int node, std::uint64_t packet_id,
                                sim::Cycle now)
{
    ++packetsLost_;
    if (tracer_)
        tracer_->addInstant("packet_lost", node, 0, now, packet_id);
}

void
FaultInjector::onFlitDiscarded(const router::Flit& flit,
                               sim::Cycle now)
{
    (void)flit;
    (void)now;
    ++flitsDiscarded_;
}

std::vector<Nack>
FaultInjector::takeNacks(int node)
{
    assert(node >= 0 &&
           static_cast<std::size_t>(node) < nacksBySource_.size());
    auto& q = nacksBySource_[static_cast<std::size_t>(node)];
    std::vector<Nack> out(q.begin(), q.end());
    q.clear();
    return out;
}

} // namespace orion::net
