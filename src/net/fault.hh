/**
 * @file
 * Deterministic fault injection for the network.
 *
 * A FaultInjector perturbs flits on inter-router links (random bit
 * errors at a configured bit-error rate, scheduled link-outage
 * windows) and stalls router output ports on a schedule. Fault
 * randomness comes from per-link sim::Rng streams derived with
 * sim::deriveSeed, and every hook runs on the single simulation
 * thread in fixed module order, so a given seed yields a bit-identical
 * fault log at any sweep parallelism (--jobs).
 *
 * Corrupted flits are *delivered* and discarded by the receiving
 * router's CRC screen (router::Router::screenArrival) rather than
 * vanishing on the wire: link energy is still spent, flit conservation
 * still proves out, and the freed buffer credit is resynchronized
 * upstream. Killed packets are reported here as NACKs that the source
 * node turns into bounded, backed-off retransmissions.
 *
 * See docs/ROBUSTNESS.md for the full fault model and recovery
 * protocol.
 */

#ifndef ORION_NET_FAULT_HH
#define ORION_NET_FAULT_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "router/fault_hooks.hh"
#include "sim/rng.hh"

namespace orion::telemetry {
class FlitTracer;
}

namespace orion::net {

/**
 * One scheduled link outage: every flit entering the link during
 * [start, end) is corrupted (and therefore dropped at the receiver).
 */
struct OutageWindow
{
    sim::Cycle start = 0;
    sim::Cycle end = 0;
    /**
     * Registered link id, or -1 to have the injector pick one
     * deterministically from the fault seed once the topology is
     * known.
     */
    int link = -1;
};

/** One scheduled router output-port stall window [start, end). */
struct PortStallWindow
{
    int node = 0;
    unsigned port = 0;
    sim::Cycle start = 0;
    sim::Cycle end = 0;
};

/** Fault-injection configuration (all defaults = no faults). */
struct FaultConfig
{
    /** Per-bit, per-traversal error probability on inter-router
     * links. */
    double linkBitErrorRate = 0.0;
    std::vector<OutageWindow> outages;
    std::vector<PortStallWindow> stalls;
    /**
     * Seed for fault schedules; 0 derives one from the simulation
     * seed, so sweeps get decorrelated per-point fault streams by
     * default.
     */
    std::uint64_t faultSeed = 0;
    /** Retransmission attempts per packet before declaring it lost. */
    unsigned retryLimit = 8;
    /** Base retransmission delay; doubles per attempt. Keep the worst
     * case (base << retryLimit-1) below SimConfig::watchdogCycles. */
    sim::Cycle retryBackoffCycles = 8;
    /** Fault-log entries kept (first N; counters and the log hash
     * always cover every event). */
    std::size_t maxLogEntries = 4096;

    /** True if any fault mechanism is configured. */
    bool enabled() const;

    /** @throw std::invalid_argument on out-of-range values. */
    void validate() const;
};

enum class FaultKind
{
    BitError,
    LinkOutage,
};

/** One injected fault, as recorded in the fault log. */
struct FaultEvent
{
    sim::Cycle cycle = 0;
    FaultKind kind = FaultKind::BitError;
    unsigned link = 0;
    std::uint64_t packetId = 0;

    bool
    operator==(const FaultEvent& o) const
    {
        return cycle == o.cycle && kind == o.kind && link == o.link &&
               packetId == o.packetId;
    }
};

/** A retransmission request delivered to a source node. */
struct Nack
{
    router::PacketRef packet;
    sim::Cycle cycle = 0;
};

/** The concrete fault engine the router layer's hooks call into. */
class FaultInjector : public router::FaultHooks
{
  public:
    /**
     * @param config     validated fault configuration
     * @param seed       resolved fault seed (already defaulted from
     *                   the simulation seed when config.faultSeed == 0)
     * @param flit_bits  link width (bit-error target range)
     */
    FaultInjector(const FaultConfig& config, std::uint64_t seed,
                  unsigned flit_bits);

    /**
     * Register one inter-router link and create its private RNG
     * stream. Called by Network in wiring order, which is part of the
     * deterministic contract: same topology => same link ids.
     */
    unsigned registerLink();

    /**
     * Validate schedules against the built topology and resolve
     * outage windows with link == -1 to concrete links.
     * @throw std::invalid_argument on a schedule referencing a
     *        nonexistent node, port, or link.
     */
    void finalizeTopology(int num_nodes, unsigned ports_per_router);

    /// @name router::FaultHooks
    /// @{
    void onLinkTraversal(unsigned link, router::Flit& flit,
                         sim::Cycle now) override;
    bool portStalled(int node, unsigned port,
                     sim::Cycle now) override;
    void onPacketKilled(const router::PacketRef& p,
                        sim::Cycle now) override;
    void onFlitDiscarded(const router::Flit& flit,
                         sim::Cycle now) override;
    /// @}

    /// @name Source-node recovery interface
    /// @{
    /** Drain the NACKs queued for source @p node. */
    std::vector<Nack> takeNacks(int node);
    /** Source @p node scheduled a retransmission of @p packet_id. */
    void recordRetransmission(int node, std::uint64_t packet_id,
                              sim::Cycle now);
    /** Source @p node abandoned @p packet_id (retry limit). */
    void recordPacketLost(int node, std::uint64_t packet_id,
                          sim::Cycle now);
    /// @}

    /**
     * Mirror recovery activity (fault injections, NACKs,
     * retransmissions, losses) into @p tracer as instant events.
     * Null detaches; the tracer must outlive the injector's use.
     */
    void setTracer(telemetry::FlitTracer* tracer) { tracer_ = tracer; }

    const FaultConfig& config() const { return config_; }
    unsigned linkCount() const
    {
        return static_cast<unsigned>(linkRngs_.size());
    }

    /// @name Counters and log (forensics, reports, determinism tests)
    /// @{
    std::uint64_t flitsCorrupted() const { return flitsCorrupted_; }
    std::uint64_t flitsOutageDropped() const { return flitsOutage_; }
    std::uint64_t flitsDiscarded() const { return flitsDiscarded_; }
    std::uint64_t packetsRetransmitted() const
    {
        return packetsRetransmitted_;
    }
    std::uint64_t packetsLost() const { return packetsLost_; }
    /** First maxLogEntries fault events, in injection order. */
    const std::vector<FaultEvent>& log() const { return log_; }
    /** Events ever injected (may exceed log().size()). */
    std::uint64_t eventCount() const { return eventCount_; }
    /** FNV-1a hash over every fault event (including any beyond the
     * log cap) — the cheap cross-run determinism fingerprint. */
    std::uint64_t faultLogHash() const { return logHash_; }
    /// @}

  private:
    void record(FaultKind kind, unsigned link,
                const router::Flit& flit, sim::Cycle now);

    FaultConfig config_;
    std::uint64_t seed_;
    telemetry::FlitTracer* tracer_ = nullptr;
    unsigned flitBits_;
    /** P(at least one bit error in a flit traversal). */
    double pFlit_;
    bool finalized_ = false;

    std::vector<sim::Rng> linkRngs_;
    std::vector<std::deque<Nack>> nacksBySource_;

    std::vector<FaultEvent> log_;
    std::uint64_t eventCount_ = 0;
    std::uint64_t logHash_;

    std::uint64_t flitsCorrupted_ = 0;
    std::uint64_t flitsOutage_ = 0;
    std::uint64_t flitsDiscarded_ = 0;
    std::uint64_t packetsRetransmitted_ = 0;
    std::uint64_t packetsLost_ = 0;
};

} // namespace orion::net

#endif // ORION_NET_FAULT_HH
