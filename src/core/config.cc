#include "core/config.hh"

#include <cassert>
#include <climits>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace orion {

namespace {

[[noreturn]] void
fail(const std::string& what)
{
    throw std::invalid_argument("orion config: " + what);
}

/** The radices' product, or 0 above INT_MAX (node ids are int); a
 * partial product <= INT_MAX times a radix never wraps 64 bits. */
std::uint64_t
nodeCount(const std::vector<unsigned>& dims)
{
    std::uint64_t nodes = 1;
    for (const unsigned k : dims) {
        nodes *= k;
        if (nodes > INT_MAX)
            return 0;
    }
    return nodes;
}

} // namespace

void
NetworkConfig::validate() const
{
    if (net.dims.empty())
        fail("topology needs at least one dimension");
    if (net.dims.size() > 31)
        fail("at most 31 dimensions (router ports fit one 64-bit mask)");
    for (const unsigned k : net.dims) {
        if (k < 2)
            fail("every dimension radix must be >= 2");
    }
    if (nodeCount(net.dims) == 0)
        fail("at most INT_MAX nodes (the radices' product; ids are int)");
    if (net.vcs < 1)
        fail("vcs must be >= 1");
    if (net.vcs > 64)
        fail("at most 64 vcs (a port's VCs fit one 64-bit mask)");
    if (net.routerKind != net::RouterKind::VirtualChannel &&
        net.vcs != 1) {
        fail("wormhole and central-buffer routers have exactly 1 VC");
    }
    if (net.bufferDepth < 1)
        fail("bufferDepth must be >= 1");
    if (net.flitBits < 1)
        fail("flitBits must be >= 1");
    if (net.packetLength < 1)
        fail("packetLength must be >= 1");

    switch (net.deadlock) {
      case router::DeadlockMode::Dateline:
        if (net.vcs < 2)
            fail("dateline deadlock avoidance needs >= 2 VCs");
        break;
      case router::DeadlockMode::Bubble:
        if (net.bufferDepth < net.packetLength)
            fail("bubble deadlock avoidance needs bufferDepth >= "
                 "packetLength");
        if (net.vcs == 1 &&
            net.routerKind != net::RouterKind::CentralBuffer &&
            net.bufferDepth < 2 * net.packetLength) {
            fail("flit-granular bubble needs bufferDepth >= 2 x "
                 "packetLength");
        }
        break;
      case router::DeadlockMode::None:
        break;
    }

    if (net.routerKind == net::RouterKind::CentralBuffer) {
        const auto& cb = net.centralBuffer;
        if (cb.capacityFlits < net.packetLength)
            fail("central buffer must hold at least one packet");
        if (cb.capacityFlits % 4 != 0)
            fail("central buffer capacity must divide into 4 banks");
        if (cb.writePorts < 1 || cb.readPorts < 1)
            fail("central buffer needs >= 1 read and write port");
    }

    if (!net.dimOrder.empty()) {
        if (net.dimOrder.size() != net.dims.size())
            fail("dimOrder must name every dimension exactly once");
        std::vector<bool> seen(net.dims.size(), false);
        for (const unsigned d : net.dimOrder) {
            if (d >= net.dims.size() || seen[d])
                fail("dimOrder must name every dimension exactly once");
            seen[d] = true;
        }
    }

    if (linkLengthUm <= 0.0)
        fail("linkLengthUm must be positive");
    if (c2cLinkPowerWatts < 0.0)
        fail("c2cLinkPowerWatts must be non-negative");
    if (tech.vdd <= 0.0 || tech.freqHz <= 0.0 || tech.featureUm <= 0.0)
        fail("technology node must have positive Vdd, frequency and "
             "feature size");
}

void
validateTraffic(const NetworkConfig& network, const TrafficConfig& traffic)
{
    const auto nodes = static_cast<unsigned>(nodeCount(network.net.dims));
    const auto in_range = [&](int n) {
        return n >= 0 && static_cast<unsigned>(n) < nodes;
    };

    // Negated-range form so NaN (for which every comparison is
    // false) is rejected instead of slipping past both bounds.
    if (traffic.pattern != net::TrafficPattern::Trace &&
        !(traffic.injectionRate >= 0.0 &&
          traffic.injectionRate <= 1.0)) {
        fail("injectionRate must lie in [0, 1] packets/cycle/node");
    }
    switch (traffic.pattern) {
      case net::TrafficPattern::Broadcast:
        if (traffic.broadcastSource >= 0 &&
            !in_range(traffic.broadcastSource)) {
            fail("broadcastSource is not a node of this network");
        }
        break;
      case net::TrafficPattern::Hotspot:
        if (!in_range(traffic.hotspotNode))
            fail("hotspotNode is not a node of this network");
        if (!(traffic.hotspotFraction >= 0.0 &&
              traffic.hotspotFraction <= 1.0)) {
            fail("hotspotFraction must lie in [0, 1]");
        }
        break;
      case net::TrafficPattern::Trace:
        if (!traffic.trace)
            fail("Trace pattern needs a trace (TrafficConfig::trace)");
        net::Trace::validate(*traffic.trace, nodes);
        break;
      case net::TrafficPattern::Transpose:
        if (network.net.dims.size() != 2)
            fail("transpose traffic needs a 2-D network");
        break;
      default:
        break;
    }
}

void
SimConfig::validate() const
{
    if (samplePackets == 0)
        fail("samplePackets must be >= 1");
    if (maxCycles == 0)
        fail("maxCycles must be >= 1");
    if (watchdogCycles == 0)
        fail("watchdogCycles must be >= 1 (0 would disable the "
             "stall watchdog and let a saturated run spin forever)");
    // The debug-drill rates compare against injection rates; a NaN
    // never matches anything, which silently disables the drill the
    // caller asked for.
    if (std::isnan(debugPoisonRate))
        fail("debugPoisonRate must not be NaN");
    if (std::isnan(debugSegvRate))
        fail("debugSegvRate must not be NaN");
}

void
validateConfig(const NetworkConfig& network, const TrafficConfig& traffic,
               const SimConfig& sim)
{
    network.validate();
    validateTraffic(network, traffic);
    sim.validate();
    sim.fault.validate();
}

namespace {

/** Map the behavioural arbiter style onto its power model. */
power::ArbiterKind
powerArbiterKind(router::ArbiterKind kind)
{
    switch (kind) {
      case router::ArbiterKind::Matrix:
        return power::ArbiterKind::Matrix;
      case router::ArbiterKind::RoundRobin:
        return power::ArbiterKind::RoundRobin;
      case router::ArbiterKind::Queuing:
        return power::ArbiterKind::Queuing;
    }
    return power::ArbiterKind::Matrix;
}

} // namespace

net::PowerModelSet
NetworkConfig::buildModels() const
{
    const unsigned ports = 2 * static_cast<unsigned>(net.dims.size()) + 1;
    const power::ArbiterKind arbiter_kind =
        powerArbiterKind(net.arbiterKind);

    net::PowerModelSet set;
    set.tech = tech;

    // Wordline/bitline lengths — and hence per-access energy — follow
    // the physical array organization (see BufferOrganization).
    const unsigned array_rows = bufferOrg == BufferOrganization::PerPort
                                    ? net.vcs * net.bufferDepth
                                    : net.bufferDepth;
    set.buffer = std::make_unique<power::BufferModel>(
        tech, power::BufferParams{array_rows, net.flitBits, 1, 1});

    if (net.routerKind != net::RouterKind::CentralBuffer) {
        // Output drivers see the downstream latch / link input.
        double out_load = 0.0;
        if (linkType == LinkType::OnChip)
            out_load = tech.cwPerUm * linkLengthUm;
        set.crossbar = std::make_unique<power::CrossbarModel>(
            tech, power::CrossbarParams{ports, ports, net.flitBits,
                                        crossbarKind, out_load});
    } else {
        const auto& cbp = net.centralBuffer;
        // Paper 4.4 organization: banks of one-flit-wide rows.
        const unsigned banks = 4;
        assert(cbp.capacityFlits % banks == 0);
        set.centralBuffer = std::make_unique<power::CentralBufferModel>(
            tech,
            power::CentralBufferParams{banks, cbp.capacityFlits / banks,
                                       net.flitBits, cbp.readPorts,
                                       cbp.writePorts, ports,
                                       cbp.pipelineLatency});
    }

    // Switch arbiter: one requester per input port, u-turn excluded
    // (the paper's "4:1 arbiter per output port"). Its grant drives
    // the crossbar control lines (E_xb_ctr folded into E_arb).
    const double ctrl_cap =
        set.crossbar ? set.crossbar->controlCap() : 0.0;
    set.switchArbiter = std::make_unique<power::ArbiterModel>(
        tech, power::ArbiterParams{ports - 1, arbiter_kind, ctrl_cap});

    if (net.routerKind == net::RouterKind::VirtualChannel) {
        set.vcArbiter = std::make_unique<power::ArbiterModel>(
            tech, power::ArbiterParams{(ports - 1) * net.vcs,
                                       arbiter_kind, 0.0});
    }

    if (linkType == LinkType::OnChip) {
        set.onChipLink = std::make_unique<power::OnChipLinkModel>(
            tech, linkLengthUm, net.flitBits);
    } else {
        set.chipToChipLink =
            std::make_unique<power::ChipToChipLinkModel>(
                c2cLinkPowerWatts);
    }
    return set;
}

namespace {

/** Common Section 4.2 on-chip base: 4x4 torus, 256-bit flits, 2 GHz. */
NetworkConfig
onChipBase()
{
    NetworkConfig c;
    c.net.dims = {4, 4};
    c.net.wrap = true;
    c.net.flitBits = 256;
    c.net.packetLength = 5;
    c.tech = tech::TechNode::onChip100nm();
    c.linkType = LinkType::OnChip;
    c.linkLengthUm = 3000.0; // 12mm x 12mm chip, 4x4 nodes
    return c;
}

/** Common Section 4.4 chip-to-chip base: 32-bit flits, 1 GHz, 3 W
 * links. */
NetworkConfig
chipToChipBase()
{
    NetworkConfig c;
    c.net.dims = {4, 4};
    c.net.wrap = true;
    c.net.flitBits = 32;
    c.net.packetLength = 5;
    c.tech = tech::TechNode::chipToChip100nm();
    c.linkType = LinkType::ChipToChip;
    c.c2cLinkPowerWatts = 3.0;
    return c;
}

} // namespace

NetworkConfig
NetworkConfig::wh64()
{
    NetworkConfig c = onChipBase();
    c.net.routerKind = net::RouterKind::Wormhole;
    c.net.vcs = 1;
    c.net.bufferDepth = 64;
    c.net.deadlock = router::DeadlockMode::Bubble;
    return c;
}

NetworkConfig
NetworkConfig::vc16()
{
    NetworkConfig c = onChipBase();
    c.net.routerKind = net::RouterKind::VirtualChannel;
    c.net.vcs = 2;
    c.net.bufferDepth = 8;
    // With only 2 VCs, dateline classes outperform the slot-granular
    // bubble rule (which would demand a fully empty downstream port
    // for every ring entry); see DESIGN.md and EXPERIMENTS.md for the
    // measured comparison.
    c.net.deadlock = router::DeadlockMode::Dateline;
    return c;
}

NetworkConfig
NetworkConfig::vc64()
{
    NetworkConfig c = vc16();
    c.net.vcs = 8;
    c.net.bufferDepth = 8;
    // With 8 VCs per port the slot-granular bubble (atomic VCT) is
    // both deadlock-free and higher-throughput than dateline classes.
    c.net.deadlock = router::DeadlockMode::Bubble;
    return c;
}

NetworkConfig
NetworkConfig::vc128()
{
    NetworkConfig c = vc64();
    c.net.bufferDepth = 16;
    return c;
}

NetworkConfig
NetworkConfig::xb()
{
    NetworkConfig c = chipToChipBase();
    c.net.routerKind = net::RouterKind::VirtualChannel;
    c.net.vcs = 16;
    c.net.bufferDepth = 268;
    c.net.deadlock = router::DeadlockMode::Dateline;
    // 16 deep VCs are physically separate arrays, not one 4288-row
    // SRAM — this is what keeps XB's per-access energy far below the
    // central buffer's (Figure 7 power ordering).
    c.bufferOrg = BufferOrganization::PerVc;
    return c;
}

NetworkConfig
NetworkConfig::cb()
{
    NetworkConfig c = chipToChipBase();
    c.net.routerKind = net::RouterKind::CentralBuffer;
    c.net.vcs = 1;
    c.net.bufferDepth = 64; // input FIFO per port
    c.net.deadlock = router::DeadlockMode::Bubble;
    c.net.centralBuffer =
        router::CentralBufferRouterParams{4 * 2560, 2, 2, 2};
    return c;
}

} // namespace orion
