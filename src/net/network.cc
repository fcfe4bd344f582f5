#include "net/network.hh"

#include <cassert>
#include <string>

namespace orion::net {

namespace {

router::RouterParams
makeRouterParams(const NetworkParams& p, const Topology& topo)
{
    router::RouterParams rp;
    rp.ports = topo.portsPerRouter();
    rp.vcs = p.vcs;
    rp.bufferDepth = p.bufferDepth;
    rp.flitBits = p.flitBits;
    rp.packetLength = p.packetLength;
    rp.deadlock = p.deadlock;
    rp.arbiterKind = p.arbiterKind;
    rp.speculative = p.speculative;
    return rp;
}

} // namespace

Network::Network(sim::Simulator& simulator, const NetworkParams& params,
                 const TrafficParams& traffic, std::uint64_t seed,
                 FaultInjector* faults)
    : params_(params),
      topo_(params.dims, params.wrap),
      routing_(topo_,
               params.dimOrder.empty() ? DorRouting::defaultOrder(topo_)
                                       : params.dimOrder,
               params.deadlock, params.tieBreak),
      traffic_(topo_, traffic),
      faults_(faults)
{
    assert(params.routerKind == RouterKind::VirtualChannel ||
           params.vcs == 1);

    buildRouters(simulator, seed);
    wire(simulator);
    if (faults_) {
        faults_->finalizeTopology(static_cast<int>(topo_.numNodes()),
                                  topo_.portsPerRouter());
    }
}

void
Network::buildRouters(sim::Simulator& simulator, std::uint64_t seed)
{
    const unsigned n = topo_.numNodes();
    const router::RouterParams rp = makeRouterParams(params_, topo_);

    routers_.reserve(n);
    nodes_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        const auto id = static_cast<int>(i);
        const std::string rname = "router" + std::to_string(i);
        switch (params_.routerKind) {
          case RouterKind::Wormhole:
            routers_.push_back(std::make_unique<router::CrossbarRouter>(
                rname, id, rp, simulator.bus(), /*va_enabled=*/false));
            break;
          case RouterKind::VirtualChannel:
            routers_.push_back(std::make_unique<router::CrossbarRouter>(
                rname, id, rp, simulator.bus(), /*va_enabled=*/true));
            break;
          case RouterKind::CentralBuffer:
            routers_.push_back(
                std::make_unique<router::CentralBufferRouter>(
                    rname, id, rp, params_.centralBuffer,
                    simulator.bus()));
            break;
        }
        nodes_.push_back(std::make_unique<Node>(
            "node" + std::to_string(i), id, topo_, routing_, traffic_,
            shared_, params_.packetLength, params_.flitBits, params_.vcs,
            params_.bufferDepth, seed, simulator.bus(),
            params_.injection));

        if (faults_) {
            routers_.back()->setFaultHooks(faults_);
            nodes_.back()->setFaultInjector(faults_);
        }
        simulator.add(routers_.back().get());
        simulator.add(nodes_.back().get());
    }
}

void
Network::wire(sim::Simulator& simulator)
{
    const unsigned n = topo_.numNodes();
    const unsigned local = topo_.localPort();

    // Inter-router links: one data link + one credit-return link per
    // (node, network port) pair with a neighbor.
    linksFrom_.assign(n, 0);
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned p = 0; p < local; ++p) {
            const int j = topo_.neighbor(static_cast<int>(i), p);
            if (j < 0)
                continue; // mesh edge
            // Data: i --port p--> j, arriving at j's opposite port.
            const unsigned q = p ^ 1u;
            auto data = std::make_unique<router::FlitLink>(
                static_cast<int>(i), static_cast<int>(p),
                params_.flitBits, /*emits_traversal=*/true);
            auto credit = std::make_unique<router::CreditLink>(
                j, static_cast<int>(q));

            routers_[i]->connectOutput(p, data.get(), credit.get(),
                                       params_.vcs, params_.bufferDepth,
                                       /*unlimited=*/false);
            routers_[j]->connectInput(q, data.get(), credit.get());
            int fault_link = -1;
            if (faults_) {
                const unsigned id = faults_->registerLink();
                data->attachFaultHooks(faults_, id);
                fault_link = static_cast<int>(id);
            }

            simulator.addChannel(data.get());
            simulator.addChannel(credit.get());
            linkRecords_.push_back({LinkRecord::Kind::InterRouter,
                                    static_cast<int>(i), p, j, q,
                                    data.get(), credit.get(),
                                    fault_link});
            flitLinks_.push_back(std::move(data));
            creditLinks_.push_back(std::move(credit));
            ++interRouterLinks_;
            ++linksFrom_[i];
        }
    }

    // Local injection/ejection wiring (no link-traversal events).
    for (unsigned i = 0; i < n; ++i) {
        const auto id = static_cast<int>(i);

        auto inj = std::make_unique<router::FlitLink>(
            id, static_cast<int>(local), params_.flitBits,
            /*emits_traversal=*/false);
        auto inj_credit = std::make_unique<router::CreditLink>(
            id, static_cast<int>(local));
        nodes_[i]->connectInjection(inj.get(), inj_credit.get());
        routers_[i]->connectInput(local, inj.get(), inj_credit.get());

        auto ej = std::make_unique<router::FlitLink>(
            id, static_cast<int>(local), params_.flitBits,
            /*emits_traversal=*/false);
        nodes_[i]->connectEjection(ej.get());
        routers_[i]->connectOutput(local, ej.get(), nullptr,
                                   params_.vcs, params_.bufferDepth,
                                   /*unlimited=*/true);

        simulator.addChannel(inj.get());
        simulator.addChannel(inj_credit.get());
        simulator.addChannel(ej.get());
        linkRecords_.push_back({LinkRecord::Kind::Injection, id, local,
                                id, local, inj.get(), inj_credit.get()});
        linkRecords_.push_back({LinkRecord::Kind::Ejection, id, local,
                                id, local, ej.get(), nullptr});
        flitLinks_.push_back(std::move(inj));
        flitLinks_.push_back(std::move(ej));
        creditLinks_.push_back(std::move(inj_credit));
    }
}

std::uint64_t
Network::totalInjected() const
{
    std::uint64_t t = 0;
    for (const auto& n : nodes_)
        t += n->packetsInjected();
    return t;
}

std::uint64_t
Network::totalEjected() const
{
    std::uint64_t t = 0;
    for (const auto& n : nodes_)
        t += n->packetsEjected();
    return t;
}

std::uint64_t
Network::totalFlitsEjected() const
{
    std::uint64_t t = 0;
    for (const auto& n : nodes_)
        t += n->flitsEjected();
    return t;
}

std::uint64_t
Network::totalLost() const
{
    std::uint64_t t = 0;
    for (const auto& n : nodes_)
        t += n->packetsLost();
    return t;
}

std::uint64_t
Network::totalUnreachable() const
{
    std::uint64_t t = 0;
    for (const auto& n : nodes_)
        t += n->packetsUnreachable();
    return t;
}

std::uint64_t
Network::inFlight() const
{
    // Lost packets (retry limit exhausted) and unreachable packets
    // (destination partitioned) are closed, not in flight: counting
    // them would wedge the drain loop and false-fire the watchdog.
    return totalInjected() - totalEjected() - totalLost() -
           totalUnreachable();
}

void
Network::resetFlitCounts()
{
    for (auto& n : nodes_)
        n->resetFlitCount();
}

} // namespace orion::net
