/**
 * @file
 * Network builder: instantiates routers, endpoint nodes, and the data/
 * credit links between them from a topology and a router
 * configuration, and registers everything with the simulator — the
 * "pick, plug and play" composition step of the paper (Section 6).
 */

#ifndef ORION_NET_NETWORK_HH
#define ORION_NET_NETWORK_HH

#include <memory>
#include <vector>

#include "net/fault.hh"
#include "net/node.hh"
#include "net/routing.hh"
#include "net/topology.hh"
#include "net/traffic.hh"
#include "router/central_buffer_router.hh"
#include "router/router.hh"
#include "router/vc_router.hh"
#include "sim/simulator.hh"

namespace orion::net {

/** Router microarchitecture selector. */
enum class RouterKind
{
    Wormhole,
    VirtualChannel,
    CentralBuffer,
};

/** Structural parameters of a network. */
struct NetworkParams
{
    /** Radix per dimension, e.g. {4, 4}. */
    std::vector<unsigned> dims{4, 4};
    /** Torus (true) or mesh (false). */
    bool wrap = true;
    RouterKind routerKind = RouterKind::VirtualChannel;
    /** VCs per input port (must be 1 for Wormhole/CentralBuffer). */
    unsigned vcs = 2;
    /** Buffer depth per VC (input FIFO depth for CB routers). */
    unsigned bufferDepth = 8;
    unsigned flitBits = 256;
    unsigned packetLength = 5;
    router::DeadlockMode deadlock = router::DeadlockMode::Dateline;
    /** Behavioural arbiter style used throughout the routers. */
    router::ArbiterKind arbiterKind = router::ArbiterKind::Matrix;
    /** Speculative VA+SA single-stage pipeline (VC routers only). */
    bool speculative = false;
    /** Central-buffer organization (CB routers only). */
    router::CentralBufferRouterParams centralBuffer{10240, 2, 2, 2};
    /** Dimension traversal order; empty selects y-first default. */
    std::vector<unsigned> dimOrder{};
    /** Half-way ring tie policy (see net/routing.hh). */
    TieBreak tieBreak = TieBreak::Random;
    /** Source injection-VC policy (see net/node.hh). */
    InjectionPolicy injection = InjectionPolicy::SingleVc;
};

/**
 * One wired channel pair and its endpoints — the audit layer's map of
 * the network graph (see net::NetworkAuditor).
 */
struct LinkRecord
{
    enum class Kind
    {
        /** Router output port -> neighbor router input port. */
        InterRouter,
        /** Node source -> router local input port. */
        Injection,
        /** Router local output port -> node sink (no credits). */
        Ejection,
    };

    Kind kind;
    /** Sending node id (router or endpoint — same id). */
    int fromNode;
    /** Sender's output port (router ports; local port for wiring). */
    unsigned fromPort;
    /** Receiving node id. */
    int toNode;
    /** Receiver's input port. */
    unsigned toPort;
    router::FlitLink* data;
    /** Credit-return channel; nullptr for ejection wiring. */
    router::CreditLink* credit;
    /** Fault-injector link id for inter-router links when a fault
     * injector is attached; -1 otherwise. The health monitor keys its
     * surviving-topology view on this. */
    int faultLinkId = -1;
};

/** A fully wired network of routers, nodes, and links. */
class Network
{
  public:
    /**
     * Build the network and register all modules and channels with
     * @p simulator. When @p faults is non-null, fault hooks are
     * attached to every router, node, and inter-router link (links
     * register with the injector in wiring order, which is the
     * deterministic link-id contract), and the injector's schedules
     * are validated against the built topology.
     */
    Network(sim::Simulator& simulator, const NetworkParams& params,
            const TrafficParams& traffic, std::uint64_t seed,
            FaultInjector* faults = nullptr);

    const Topology& topology() const { return topo_; }
    const NetworkParams& params() const { return params_; }
    SharedState& shared() { return shared_; }
    const SharedState& shared() const { return shared_; }

    router::Router& router(int node) { return *routers_[node]; }
    const router::Router& router(int node) const
    {
        return *routers_[node];
    }
    Node& endpoint(int node) { return *nodes_[node]; }
    const Node& endpoint(int node) const { return *nodes_[node]; }

    /** Inter-router unidirectional links in the network. */
    unsigned interRouterLinks() const { return interRouterLinks_; }
    /** Inter-router links whose sender is @p node. */
    unsigned linksFrom(int node) const { return linksFrom_[node]; }
    /** linksFrom() of every node, indexed by node. */
    const std::vector<unsigned>& linksPerNode() const
    {
        return linksFrom_;
    }

    /** Every wired channel pair, for network-wide audits. */
    const std::vector<LinkRecord>& linkRecords() const
    {
        return linkRecords_;
    }

    /** The attached fault injector, or nullptr in fault-free runs. */
    const FaultInjector* faultInjector() const { return faults_; }

    /// @name Aggregate statistics
    /// @{
    std::uint64_t totalInjected() const;
    std::uint64_t totalEjected() const;
    std::uint64_t totalFlitsEjected() const;
    /** Packets abandoned after exhausting the retry limit. */
    std::uint64_t totalLost() const;
    /** Packets dropped at the source because no surviving path to
     * their destination existed (rerouting enabled only). */
    std::uint64_t totalUnreachable() const;
    /** Packets created but neither fully ejected nor abandoned. */
    std::uint64_t inFlight() const;
    void resetFlitCounts();
    /// @}

  private:
    void buildRouters(sim::Simulator& simulator, std::uint64_t seed);
    void wire(sim::Simulator& simulator);

    NetworkParams params_;
    Topology topo_;
    DorRouting routing_;
    TrafficGenerator traffic_;
    SharedState shared_;
    FaultInjector* faults_ = nullptr;

    std::vector<std::unique_ptr<router::Router>> routers_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::unique_ptr<router::FlitLink>> flitLinks_;
    std::vector<std::unique_ptr<router::CreditLink>> creditLinks_;
    std::vector<LinkRecord> linkRecords_;
    unsigned interRouterLinks_ = 0;
    /** Outgoing inter-router links per node, counted while wiring. */
    std::vector<unsigned> linksFrom_;
};

} // namespace orion::net

#endif // ORION_NET_NETWORK_HH
