/**
 * @file
 * Network endpoint: message source and sink for one node.
 *
 * The source generates packets per the traffic pattern (Bernoulli
 * injection), builds their source routes, queues them (source queuing
 * time counts toward latency, paper Section 4.1), and injects flits
 * into the router's local input port under credit flow control. The
 * sink ejects flits immediately (the paper assumes immediate ejection)
 * and records packet latency "from when the first flit of the packet
 * is created, to when its last flit is ejected".
 */

#ifndef ORION_NET_NODE_HH
#define ORION_NET_NODE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>

#include "net/fault.hh"
#include "net/routing.hh"
#include "net/topology.hh"
#include "net/traffic.hh"
#include "router/credit.hh"
#include "router/link.hh"
#include "sim/module.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace orion::net {

class HealthMonitor;

/**
 * Measurement state shared by all nodes of a network: marks which
 * packets belong to the 10,000-packet sample window (paper 4.1) and
 * hands out packet ids.
 */
struct SharedState
{
    /** True while newly created packets join the sample. */
    bool sampling = false;
    /** Sample packets still to be created. */
    std::uint64_t sampleRemaining = 0;
    std::uint64_t sampleInjected = 0;
    std::uint64_t sampleEjected = 0;
    /** Sample packets abandoned after exhausting the retry limit
     * (fault injection only) — counts toward drain completion. */
    std::uint64_t sampleLost = 0;
    std::uint64_t nextPacketId = 0;
    /** Latencies of ejected sample packets (cycles). */
    sim::Accumulator sampleLatency;
    /** Latency distribution of sample packets (1-cycle bins up to
     * 4096 cycles, overflow beyond). */
    sim::Histogram sampleLatencyHist{1.0, 4096};
    /**
     * Shared packet recycler: at steady state every generated or
     * cloned packet reuses the storage (and route-vector capacity) of
     * one that finished, instead of an allocation per packet.
     */
    router::PacketPool packetPool;
};

/**
 * How the source picks the router-input VC for each new packet.
 *
 * SingleVc models a network interface with one injection FIFO: every
 * packet enters the router on VC 0, so packets serialize through the
 * local input queue (the "packets of the same VC still need to wait
 * for packets ahead in the queue" effect of paper Section 4.4).
 * SpreadVcs load-balances packets across the local input VCs.
 */
enum class InjectionPolicy
{
    SingleVc,
    SpreadVcs,
};

/** Source + sink endpoint module. */
class Node : public sim::Module
{
  public:
    /**
     * @param node           node id
     * @param router_vcs     VC count of the router's local input port
     * @param buffer_depth   its per-VC depth
     * @param packet_length  flits per packet
     */
    Node(std::string name, int node, const Topology& topo,
         const DorRouting& routing, TrafficGenerator& traffic,
         SharedState& shared, unsigned packet_length, unsigned flit_bits,
         unsigned router_vcs, unsigned buffer_depth, std::uint64_t seed,
         sim::EventBus& bus,
         InjectionPolicy policy = InjectionPolicy::SpreadVcs);

    /** Attach the injection link into the router's local input port
     * and the credit-return link from it. */
    void connectInjection(router::FlitLink* to_router,
                          router::CreditLink* credit_from_router);

    /** Attach the ejection link from the router's local output port. */
    void connectEjection(router::FlitLink* from_router);

    /**
     * Enable fault recovery: stamp link CRCs on injected flits, drain
     * this node's NACKs from @p injector, and retransmit killed
     * packets with doubling backoff up to the configured retry limit.
     */
    void setFaultInjector(FaultInjector* injector);

    /**
     * Enable fault-tolerant rerouting: watch @p health for topology
     * epochs, rebuild queued routes that cross dead links (RNG-free
     * detours, so the traffic stream's draw sequence is untouched),
     * and drop packets whose destination is partitioned into the
     * `unreachable` loss category instead of burning retries.
     */
    void setHealthMonitor(HealthMonitor* health);

    /**
     * Test-only: queue a fully specified packet (id, length, route
     * already set) for injection, bypassing the traffic process —
     * the debug knob behind injected-deadlock tests.
     */
    void debugInjectPacket(router::PacketRef pkt);

    void cycle(sim::Cycle now) override;

    /// @name Statistics
    /// @{
    std::uint64_t packetsInjected() const { return packetsInjected_; }
    std::uint64_t packetsEjected() const { return packetsEjected_; }
    /** Packets abandoned after exhausting the retry limit. */
    std::uint64_t packetsLost() const { return packetsLost_; }
    /** Packets dropped because no surviving path to the destination
     * existed (fail-fast partition loss; rerouting only). */
    std::uint64_t packetsUnreachable() const
    {
        return packetsUnreachable_;
    }
    std::uint64_t flitsEjected() const { return flitsEjected_; }
    std::size_t sourceQueueLength() const { return sourceQueue_.size(); }
    /** Zero the flit-ejection counter (start of measurement window). */
    void resetFlitCount() { flitsEjected_ = 0; }
    /// @}

    /// @name Audit ledgers (never reset; net::NetworkAuditor)
    /// @{
    /** Flits sent into the router over the node's lifetime. */
    std::uint64_t flitsInjectedTotal() const
    {
        return flitsInjectedTotal_;
    }
    /** Flits ejected over the node's lifetime. */
    std::uint64_t flitsEjectedTotal() const { return flitsEjectedTotal_; }
    /** Sender-side credit view of the router's local input port. */
    const router::CreditCounter& injectionCreditCounter() const
    {
        return *injectionCredits_;
    }
    /// @}

  private:
    void ejectStage(sim::Cycle now);
    void rerouteStage(sim::Cycle now);
    void retransmitStage(sim::Cycle now);
    void generateStage(sim::Cycle now);
    void injectStage(sim::Cycle now);

    /** Close @p pkt as unreachable (counter + sample settlement). */
    void dropUnreachable(const router::PacketInfo& pkt);
    /**
     * Replace @p pkt's route with a surviving-graph detour when it
     * crosses a dead link. Returns false when the destination is
     * partitioned (caller drops the packet as unreachable).
     */
    bool healRoute(router::PacketRef& pkt);

    power::BitVec randomPayload();

    const Topology& topo_;
    const DorRouting& routing_;
    TrafficGenerator& traffic_;
    SharedState& shared_;
    sim::EventBus& bus_;
    sim::Rng rng_;

    unsigned packetLength_;
    unsigned flitBits_;
    unsigned routerVcs_;
    InjectionPolicy policy_;

    router::FlitLink* toRouter_ = nullptr;
    router::CreditLink* creditFromRouter_ = nullptr;
    router::FlitLink* fromRouter_ = nullptr;
    std::unique_ptr<router::CreditCounter> injectionCredits_;

    /** Packets waiting to enter the network. */
    std::deque<router::PacketRef> sourceQueue_;
    /** Next flit index of the packet currently being injected. */
    unsigned injectSeq_ = 0;
    /** VC the current packet is being injected on. */
    unsigned injectVc_ = 0;

    std::uint64_t packetsInjected_ = 0;
    std::uint64_t packetsEjected_ = 0;
    std::uint64_t packetsLost_ = 0;
    std::uint64_t packetsUnreachable_ = 0;
    std::uint64_t flitsEjected_ = 0;
    std::uint64_t flitsInjectedTotal_ = 0;
    std::uint64_t flitsEjectedTotal_ = 0;

    /// @name Fault recovery (inert while injector_ is null)
    /// @{
    FaultInjector* injector_ = nullptr;
    /** Current attempt number per NACKed packet id — NACKs for any
     * other attempt are stale duplicates and ignored. */
    std::unordered_map<std::uint64_t, unsigned> attempts_;
    /** Retransmissions waiting out their backoff: (due cycle, clone
     * with bumped attempt), in scheduling order. */
    std::deque<std::pair<sim::Cycle, router::PacketRef>> retryQueue_;
    /// @}

    /// @name Fault-tolerant rerouting (inert while health_ is null)
    /// @{
    HealthMonitor* health_ = nullptr;
    /** Last surviving-topology epoch this node reacted to. */
    std::uint64_t healthEpoch_ = 0;
    /// @}
};

} // namespace orion::net

#endif // ORION_NET_NODE_HH
