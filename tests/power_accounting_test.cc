/**
 * @file
 * Tests for the power monitor: energy accounting identities (energy ==
 * sum over events of the model-evaluated energies), component
 * attribution, constant chip-to-chip link power, and the paper's
 * P = E x f / cycles rule.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/config.hh"
#include "core/simulation.hh"
#include "net/power_monitor.hh"
#include "sim/rng.hh"

namespace {

using namespace orion;
using namespace orion::net;

TEST(PowerMonitor, BufferEventsAccumulateModelEnergy)
{
    sim::EventBus bus;
    NetworkConfig cfg = NetworkConfig::vc16();
    PowerMonitor mon(bus, cfg.buildModels(), 16, 4);

    const auto& buf = *mon.models().buffer;
    bus.emit({sim::EventType::BufferWrite, 3, 0, 100, 40, 0});
    bus.emit({sim::EventType::BufferRead, 3, 0, 0, 0, 1});

    const double expect = buf.writeEnergy(100, 40) + buf.readEnergy();
    EXPECT_DOUBLE_EQ(mon.energy(3, ComponentClass::Buffer), expect);
    EXPECT_DOUBLE_EQ(mon.energy(2, ComponentClass::Buffer), 0.0);
    EXPECT_DOUBLE_EQ(mon.totalEnergy(ComponentClass::Buffer), expect);
}

TEST(PowerMonitor, ArbiterEventsIncludeVcAllocation)
{
    sim::EventBus bus;
    NetworkConfig cfg = NetworkConfig::vc16();
    PowerMonitor mon(bus, cfg.buildModels(), 16, 4);

    bus.emit({sim::EventType::Arbitration, 0, 2, 2, 3, 0});
    bus.emit({sim::EventType::VcAllocation, 0, 1, 1, 1, 0});

    const double expect =
        mon.models().switchArbiter->arbitrationEnergy(2, 3) +
        mon.models().vcArbiter->arbitrationEnergy(1, 1);
    EXPECT_DOUBLE_EQ(mon.energy(0, ComponentClass::Arbiter), expect);
}

TEST(PowerMonitor, DeltasClampToModelRange)
{
    // Behavioural modules may report deltas above a model's
    // architectural limit (e.g. a 5-requester behavioural arbiter vs
    // the 4:1 power model); the monitor clamps instead of asserting.
    sim::EventBus bus;
    NetworkConfig cfg = NetworkConfig::vc16();
    PowerMonitor mon(bus, cfg.buildModels(), 16, 4);

    bus.emit({sim::EventType::Arbitration, 0, 0, 1000, 1000, 0});
    bus.emit({sim::EventType::CrossbarTraversal, 0, 0, 100000, 0, 0});
    bus.emit({sim::EventType::BufferWrite, 0, 0, 100000, 100000, 0});

    const auto& m = mon.models();
    const unsigned r = m.switchArbiter->params().requests;
    const double expect_arb = m.switchArbiter->arbitrationEnergy(
        r, m.switchArbiter->priorityFlipFlops());
    EXPECT_DOUBLE_EQ(mon.energy(0, ComponentClass::Arbiter), expect_arb);
    EXPECT_DOUBLE_EQ(
        mon.energy(0, ComponentClass::Crossbar),
        m.crossbar->traversalEnergy(m.crossbar->params().width));
}

TEST(PowerMonitor, EachArbiterKindChargesItsArbitrationEnergy)
{
    // One arbitration at delta_req 0, 1 and R for each arbiter style.
    // The queuing arbiter writes its FIFO only when some request line
    // changed, so its energy steps once, from 0 to 1, and then stays.
    for (const auto kind :
         {router::ArbiterKind::Matrix, router::ArbiterKind::RoundRobin,
          router::ArbiterKind::Queuing}) {
        NetworkConfig cfg = NetworkConfig::vc16();
        cfg.net.arbiterKind = kind;
        const PowerModelSet probe = cfg.buildModels();
        const power::ArbiterModel& m = *probe.switchArbiter;
        const unsigned r = m.params().requests;
        const unsigned pri = kind == router::ArbiterKind::Queuing ? 0 : 1;
        std::vector<double> energies;
        for (const unsigned req : {0u, 1u, r}) {
            sim::EventBus bus;
            PowerMonitor mon(bus, cfg.buildModels(), 16, 4);
            bus.emit({sim::EventType::Arbitration, 0, 0, req, pri, 0});
            energies.push_back(mon.energy(0, ComponentClass::Arbiter));
            EXPECT_DOUBLE_EQ(energies.back(),
                             m.arbitrationEnergy(req, pri))
                << static_cast<int>(kind) << " delta_req " << req;
        }
        EXPECT_LT(energies[0], energies[1]);
        if (kind == router::ArbiterKind::Queuing)
            EXPECT_EQ(energies[1], energies[2]);
        else
            EXPECT_LT(energies[1], energies[2]);
    }
}

TEST(PowerMonitor, LedgerDoesNotDependOnEventOrder)
{
    // The same multiset of events, in order and shuffled, gives the
    // same ledger bit for bit: energy is evaluated from exact counts,
    // never from a floating-point running sum.
    const NetworkConfig cfg = NetworkConfig::vc16();
    constexpr unsigned kNodes = 4;
    sim::Rng rng(0x5eed);
    std::vector<sim::Event> events(20000);
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto type = static_cast<sim::EventType>(
            rng.below(sim::kNumPowerEventTypes));
        // Deltas up to past the 256-bit flit, so clamping is covered.
        events[i] = {type,
                     static_cast<int>(rng.below(kNodes)),
                     0,
                     static_cast<std::uint32_t>(rng.below(300)),
                     static_cast<std::uint32_t>(rng.below(300)),
                     i};
    }
    std::vector<sim::Event> shuffled = events;
    for (std::size_t i = shuffled.size() - 1; i > 0; --i)
        std::swap(shuffled[i], shuffled[rng.below(i + 1)]);

    sim::EventBus bus_a;
    sim::EventBus bus_b;
    PowerMonitor a(bus_a, cfg.buildModels(), kNodes, 4);
    PowerMonitor b(bus_b, cfg.buildModels(), kNodes, 4);
    for (const sim::Event& ev : events)
        bus_a.emit(ev);
    for (const sim::Event& ev : shuffled)
        bus_b.emit(ev);

    EXPECT_GT(a.totalEnergy(), 0.0);
    EXPECT_TRUE(a.energyLedger() == b.energyLedger());
    EXPECT_EQ(a.networkPower(1000.0), b.networkPower(1000.0));
    for (unsigned t = 0; t < sim::kNumEventTypes; ++t) {
        const auto type = static_cast<sim::EventType>(t);
        EXPECT_EQ(a.eventCount(type), b.eventCount(type));
    }
}

TEST(PowerMonitor, OnChipLinkEnergyFollowsActivity)
{
    sim::EventBus bus;
    NetworkConfig cfg = NetworkConfig::vc16();
    PowerMonitor mon(bus, cfg.buildModels(), 16, 4);

    bus.emit({sim::EventType::LinkTraversal, 5, 0, 128, 0, 0});
    EXPECT_DOUBLE_EQ(mon.energy(5, ComponentClass::Link),
                     mon.models().onChipLink->traversalEnergy(128));
}

TEST(PowerMonitor, ChipToChipLinkPowerIsConstant)
{
    sim::EventBus bus;
    NetworkConfig cfg = NetworkConfig::xb();
    PowerMonitor mon(bus, cfg.buildModels(), 16, 4);

    // No traversal events at all: link power is still 4 links x 3 W
    // per node.
    EXPECT_DOUBLE_EQ(mon.energy(0, ComponentClass::Link), 0.0);
    EXPECT_NEAR(mon.nodePower(0, 1000.0), 12.0, 1e-9);
    EXPECT_NEAR(mon.classPower(ComponentClass::Link, 1000.0),
                16.0 * 12.0, 1e-6);

    // Traversal events add nothing.
    bus.emit({sim::EventType::LinkTraversal, 0, 0, 16, 0, 0});
    EXPECT_DOUBLE_EQ(mon.energy(0, ComponentClass::Link), 0.0);
}

TEST(PowerMonitor, ChipToChipLinkPowerFollowsEachNodesLinks)
{
    // A 4x4 mesh has 48 unidirectional links: a corner node drives 2,
    // an edge node 3 and a centre node 4, at 3 W each.
    NetworkConfig cfg = NetworkConfig::xb();
    cfg.net.wrap = false;
    Simulation sim(cfg, TrafficConfig{}, SimConfig{});
    const PowerMonitor& mon = sim.monitor();
    EXPECT_DOUBLE_EQ(mon.classPower(ComponentClass::Link, 1000.0), 144.0);
    EXPECT_DOUBLE_EQ(mon.nodePower(0, 1000.0), 6.0);
    EXPECT_DOUBLE_EQ(mon.nodePower(1, 1000.0), 9.0);
    EXPECT_DOUBLE_EQ(mon.nodePower(5, 1000.0), 12.0);
}

TEST(PowerMonitor, AveragePowerIsEnergyTimesFreqOverCycles)
{
    // Paper 4.1: "Average power is then computed by multiplying the
    // total energy by frequency and then dividing by total simulation
    // cycles."
    sim::EventBus bus;
    NetworkConfig cfg = NetworkConfig::vc16();
    PowerMonitor mon(bus, cfg.buildModels(), 16, 4);

    bus.emit({sim::EventType::BufferRead, 0, 0, 0, 0, 0});
    const double e = mon.totalEnergy();
    const double f = cfg.tech.freqHz;
    EXPECT_DOUBLE_EQ(mon.networkPower(1000.0), e * f / 1000.0);
    EXPECT_DOUBLE_EQ(mon.nodePower(0, 500.0), e * f / 500.0);
}

TEST(PowerMonitor, ResetZeroesEverything)
{
    sim::EventBus bus;
    NetworkConfig cfg = NetworkConfig::vc16();
    PowerMonitor mon(bus, cfg.buildModels(), 16, 4);

    bus.emit({sim::EventType::BufferRead, 1, 0, 0, 0, 0});
    bus.emit({sim::EventType::CrossbarTraversal, 1, 0, 10, 0, 0});
    EXPECT_GT(mon.totalEnergy(), 0.0);
    mon.reset();
    EXPECT_DOUBLE_EQ(mon.totalEnergy(), 0.0);
    EXPECT_EQ(mon.eventCount(sim::EventType::BufferRead), 0u);
}

TEST(PowerMonitor, CentralBufferEventsUseHierarchicalModel)
{
    sim::EventBus bus;
    NetworkConfig cfg = NetworkConfig::cb();
    PowerMonitor mon(bus, cfg.buildModels(), 16, 4);

    bus.emit({sim::EventType::CentralBufferWrite, 2, 0, 16, 8, 0});
    bus.emit({sim::EventType::CentralBufferRead, 2, 0, 16, 0, 1});
    const auto& cb = *mon.models().centralBuffer;
    EXPECT_DOUBLE_EQ(mon.energy(2, ComponentClass::CentralBuffer),
                     cb.writeEnergy(16, 16, 8) + cb.readEnergy(16));
}

TEST(PowerAccounting, SimulationEnergyMatchesEventCounts)
{
    // End-to-end identity: with a workload of known event counts, the
    // dynamic energy must lie between the models' min and max per-op
    // energies times the counts.
    SimConfig s;
    s.samplePackets = 800;
    s.maxCycles = 100000;
    s.seed = 9;
    TrafficConfig t;
    t.injectionRate = 0.05;
    Simulation sim(NetworkConfig::vc16(), t, s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed);

    auto& mon = sim.monitor();
    const auto& models = mon.models();
    const auto count = [&](sim::EventType ty) {
        return static_cast<double>(mon.eventCount(ty));
    };

    const double n_write = count(sim::EventType::BufferWrite);
    const double n_read = count(sim::EventType::BufferRead);
    // Reads and writes pair up per buffered flit.
    EXPECT_NEAR(n_write, n_read, 0.02 * n_write + 500.0);

    const double e_buf = mon.totalEnergy(ComponentClass::Buffer);
    const double min_buf =
        n_write * models.buffer->writeEnergy(0, 0) +
        n_read * models.buffer->readEnergy();
    const double max_buf =
        n_write * models.buffer->writeEnergy(
                      models.buffer->params().flitBits,
                      models.buffer->params().flitBits) +
        n_read * models.buffer->readEnergy();
    EXPECT_GE(e_buf, min_buf * 0.999);
    EXPECT_LE(e_buf, max_buf * 1.001);

    const double n_xb = count(sim::EventType::CrossbarTraversal);
    const double e_xb = mon.totalEnergy(ComponentClass::Crossbar);
    EXPECT_LE(e_xb, n_xb * models.crossbar->traversalEnergy(
                               models.crossbar->params().width));
    EXPECT_GT(e_xb, 0.0);

    // Every link traversal is also a crossbar traversal upstream, and
    // ejections traverse the crossbar but not a link.
    EXPECT_GE(n_xb, count(sim::EventType::LinkTraversal));
}

TEST(PowerAccounting, ArbiterShareIsTinyOnChip)
{
    // Figure 5(c): "the power consumed by arbiters (less than 1% of
    // node power) is minimal".
    SimConfig s;
    s.samplePackets = 800;
    s.maxCycles = 100000;
    TrafficConfig t;
    t.injectionRate = 0.08;
    Simulation sim(NetworkConfig::vc64(), t, s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_LT(r.breakdownWatts.arbiter,
              0.01 * r.networkPowerWatts);
}

TEST(PowerAccounting, BuffersAndCrossbarDominateRouterPower)
{
    // Figure 5(c): input buffers and crossbar consume more than 85% of
    // router (non-link) power.
    SimConfig s;
    s.samplePackets = 800;
    s.maxCycles = 100000;
    TrafficConfig t;
    t.injectionRate = 0.08;
    Simulation sim(NetworkConfig::vc64(), t, s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed);
    const double router_power = r.networkPowerWatts -
                                r.breakdownWatts.link;
    EXPECT_GT(r.breakdownWatts.buffer + r.breakdownWatts.crossbar,
              0.85 * router_power);
}

} // namespace
