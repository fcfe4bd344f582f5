/**
 * @file
 * Tests for the speculative VC router pipeline (Peh-Dally [15]): VA
 * and SA share a stage, cutting one cycle per hop while preserving
 * all flow-control and deadlock properties.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/config.hh"
#include "core/simulation.hh"
#include "event_recorder.hh"
#include "router_test_util.hh"

namespace {

using namespace orion;
using namespace orion::router;
using namespace orion::test;
using sim::Event;
using sim::EventType;

RouterParams
specParams()
{
    RouterParams p;
    p.ports = 5;
    p.vcs = 2;
    p.bufferDepth = 8;
    p.flitBits = 64;
    p.packetLength = 1;
    p.deadlock = DeadlockMode::None;
    p.speculative = true;
    return p;
}

TEST(SpeculativeRouter, VaAndSaShareACycle)
{
    const RouterParams p = specParams();
    SingleRouterHarness h(
        [&](sim::Simulator& s) {
            return std::make_unique<CrossbarRouter>("spec", 0, p,
                                                    s.bus(), true);
        },
        p.vcs, p.bufferDepth);

    std::vector<Event> events;
    recordEvents(h.sim.bus(),
                 {EventType::BufferWrite, EventType::VcAllocation,
                  EventType::Arbitration, EventType::CrossbarTraversal},
                 events);

    sim::Rng rng(1);
    auto flits = makePacket(
        1, 0, 1, 1, p.flitBits,
        {RouteHop{2, 0, false}, RouteHop{4, 0, false}}, rng);
    h.inject(1, std::move(flits[0]));
    h.sim.run(5);

    // BW at 1; VA and SA both at 2; ST at 3 — one cycle earlier than
    // the non-speculative 3-stage pipeline.
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].type, EventType::BufferWrite);
    EXPECT_EQ(events[0].cycle, 1u);
    EXPECT_EQ(events[1].type, EventType::VcAllocation);
    EXPECT_EQ(events[1].cycle, 2u);
    EXPECT_EQ(events[2].type, EventType::Arbitration);
    EXPECT_EQ(events[2].cycle, 2u);
    EXPECT_EQ(events[3].type, EventType::CrossbarTraversal);
    EXPECT_EQ(events[3].cycle, 3u);
}

TEST(SpeculativeRouter, CutsZeroLoadLatencyByHops)
{
    // Network-level: the speculative VC16 should shave ~1 cycle per
    // router traversal (avg hops + 1) off zero-load latency.
    const auto zero_load = [](bool speculative) {
        NetworkConfig cfg = NetworkConfig::vc16();
        cfg.net.speculative = speculative;
        TrafficConfig t;
        t.injectionRate = 0.002;
        SimConfig s;
        s.samplePackets = 400;
        s.maxCycles = 400000;
        Simulation sim(cfg, t, s);
        return sim.run().avgLatencyCycles;
    };
    const double base = zero_load(false);
    const double spec = zero_load(true);
    EXPECT_LT(spec, base);
    EXPECT_NEAR(base - spec, 32.0 / 15.0 + 1.0, 1.2);
}

TEST(SpeculativeRouter, DeliversUnderLoadWithDateline)
{
    NetworkConfig cfg = NetworkConfig::vc16();
    cfg.net.speculative = true;
    TrafficConfig t;
    t.injectionRate = 0.1;
    SimConfig s;
    s.samplePackets = 2000;
    s.maxCycles = 200000;
    Simulation sim(cfg, t, s);
    const Report r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.deadlockSuspected);
}

TEST(SpeculativeRouter, SurvivesOversaturationWithBubble)
{
    NetworkConfig cfg = NetworkConfig::vc64();
    cfg.net.speculative = true;
    TrafficConfig t;
    t.injectionRate = 0.25;
    SimConfig s;
    s.samplePackets = 3000;
    s.maxCycles = 30000;
    s.watchdogCycles = 3000;
    Simulation sim(cfg, t, s);
    const Report r = sim.run();
    EXPECT_FALSE(r.deadlockSuspected);
    EXPECT_GT(r.acceptedFlitsPerNodePerCycle, 0.2);
}

TEST(SpeculativeRouter, PowerUnchangedAtEqualThroughput)
{
    // Our simplified speculation reorders stages without extra
    // speculative arbitrations, so pre-saturation power should match
    // the baseline closely at equal load.
    const auto power_at = [](bool speculative) {
        NetworkConfig cfg = NetworkConfig::vc64();
        cfg.net.speculative = speculative;
        TrafficConfig t;
        t.injectionRate = 0.08;
        SimConfig s;
        s.samplePackets = 1500;
        s.maxCycles = 200000;
        Simulation sim(cfg, t, s);
        return sim.run().networkPowerWatts;
    };
    const double base = power_at(false);
    const double spec = power_at(true);
    EXPECT_NEAR(spec, base, 0.05 * base);
}

} // namespace
