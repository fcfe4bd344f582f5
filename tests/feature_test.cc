/**
 * @file
 * Tests for the configurable features layered on the core
 * reproduction: queuing arbiters, the arbiter-kind plumb-through,
 * PreferWrap tie-breaking, injection policies, buffer organization,
 * credit-counter emptiness queries, and the Figure 7 area-fairness
 * argument.
 */

#include <gtest/gtest.h>

#include "core/config.hh"
#include "core/simulation.hh"
#include "net/routing.hh"
#include "power/buffer_model.hh"
#include "power/central_buffer_model.hh"
#include "router/arbiter.hh"
#include "router/credit.hh"

namespace {

using namespace orion;
using namespace orion::router;

/** The packed request words asserting @p asserted among @p n. */
std::vector<std::uint64_t>
reqs(std::initializer_list<int> asserted, unsigned n)
{
    std::vector<std::uint64_t> v(Arbiter::wordsFor(n), 0);
    for (int i : asserted)
        v[static_cast<unsigned>(i) / 64] |= std::uint64_t{1} << (i % 64);
    return v;
}

TEST(QueuingArbiter, ServesInArrivalOrder)
{
    QueuingArbiter arb(4);
    // 2 requests first, then 0 joins a cycle later.
    EXPECT_EQ(arb.arbitrate(reqs({2, 3}, 4)).winner, 2);
    EXPECT_EQ(arb.arbitrate(reqs({0, 3}, 4)).winner, 3);
    EXPECT_EQ(arb.arbitrate(reqs({0}, 4)).winner, 0);
}

TEST(QueuingArbiter, WithdrawnRequestsAreSkipped)
{
    QueuingArbiter arb(3);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 3)).winner, 0);
    // Requester 1 withdraws; 2 arrived later but is the only one left.
    EXPECT_EQ(arb.arbitrate(reqs({2}, 3)).winner, 2);
    EXPECT_EQ(arb.arbitrate(reqs({}, 3)).winner, -1);
}

TEST(QueuingArbiter, NoDoubleQueuing)
{
    QueuingArbiter arb(2);
    // Requester 0 keeps requesting while losing nothing; it must not
    // occupy multiple queue slots.
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 2)).winner, 0);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 2)).winner, 1);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 2)).winner, 0);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 2)).winner, 1);
}

TEST(ArbiterFactory, MakesRequestedKinds)
{
    EXPECT_NE(dynamic_cast<MatrixArbiter*>(
                  makeArbiter(ArbiterKind::Matrix, 4).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<RoundRobinArbiter*>(
                  makeArbiter(ArbiterKind::RoundRobin, 4).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<QueuingArbiter*>(
                  makeArbiter(ArbiterKind::Queuing, 4).get()),
              nullptr);
}

TEST(ArbiterKindNetwork, AllKindsDeliverTraffic)
{
    for (const auto kind : {ArbiterKind::Matrix, ArbiterKind::RoundRobin,
                            ArbiterKind::Queuing}) {
        NetworkConfig cfg = NetworkConfig::vc16();
        cfg.net.arbiterKind = kind;
        TrafficConfig traffic;
        traffic.injectionRate = 0.05;
        SimConfig sim;
        sim.samplePackets = 800;
        sim.maxCycles = 100000;
        Simulation s(cfg, traffic, sim);
        const Report r = s.run();
        EXPECT_TRUE(r.completed);
        EXPECT_GT(r.breakdownWatts.arbiter, 0.0);
    }
}

TEST(TieBreakPreferWrap, AlwaysRoutesTiesThroughWraparound)
{
    const net::Topology topo({4, 4}, true);
    const net::DorRouting dor(topo, net::DorRouting::defaultOrder(topo),
                              DeadlockMode::Dateline,
                              net::TieBreak::PreferWrap);
    sim::Rng rng(1);
    // (0,0) -> (2,0): x tie. PreferWrap goes minus (0 -> 3 -> 2),
    // crossing the wrap, so the route gets dateline class 1.
    for (int trial = 0; trial < 20; ++trial) {
        const auto route =
            dor.route(topo.nodeAt({0, 0}), topo.nodeAt({2, 0}), rng);
        ASSERT_EQ(route.size(), 3u);
        EXPECT_FALSE(topo.portIsPlus(route[0].port));
        EXPECT_EQ(route[0].vcClass, 1);
    }
    // (1,0) -> (3,0): going plus (1 -> 2 -> 3) does not wrap; minus
    // (1 -> 0 -> 3) does. PreferWrap takes minus.
    const auto route =
        dor.route(topo.nodeAt({1, 0}), topo.nodeAt({3, 0}), rng);
    EXPECT_FALSE(topo.portIsPlus(route[0].port));
}

TEST(TieBreakPreferWrap, BalancesDatelineClasses)
{
    // Under uniform random traffic, PreferWrap splits ring traversals
    // ~50/50 between dateline classes (vs ~1/3 crossing with random
    // ties).
    const net::Topology topo({4, 4}, true);
    sim::Rng rng(3);
    const auto crossing_fraction = [&](net::TieBreak tb) {
        const net::DorRouting dor(topo,
                                  net::DorRouting::defaultOrder(topo),
                                  DeadlockMode::Dateline, tb);
        int traversals = 0;
        int crossing = 0;
        for (int src = 0; src < 16; ++src) {
            for (int dst = 0; dst < 16; ++dst) {
                if (src == dst)
                    continue;
                for (int t = 0; t < 8; ++t) {
                    const auto route = dor.route(src, dst, rng);
                    // Count ring traversals (dimension runs).
                    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
                        if (!route[i].newRing)
                            continue;
                        ++traversals;
                        if (route[i].vcClass == 1)
                            ++crossing;
                    }
                }
            }
        }
        return static_cast<double>(crossing) / traversals;
    };
    EXPECT_NEAR(crossing_fraction(net::TieBreak::PreferWrap), 0.5,
                0.06);
    EXPECT_NEAR(crossing_fraction(net::TieBreak::Random), 0.33, 0.06);
}

TEST(InjectionPolicy, SingleVcUsesOnlyVcZero)
{
    NetworkConfig cfg = NetworkConfig::vc64();
    cfg.net.injection = net::InjectionPolicy::SingleVc;
    TrafficConfig traffic;
    traffic.injectionRate = 0.05;
    SimConfig sim;
    sim.samplePackets = 500;
    sim.maxCycles = 100000;
    Simulation s(cfg, traffic, sim);
    EXPECT_TRUE(s.run().completed);
}

TEST(InjectionPolicy, SpreadVcsDelivers)
{
    NetworkConfig cfg = NetworkConfig::vc64();
    cfg.net.injection = net::InjectionPolicy::SpreadVcs;
    TrafficConfig traffic;
    traffic.injectionRate = 0.05;
    SimConfig sim;
    sim.samplePackets = 500;
    sim.maxCycles = 100000;
    Simulation s(cfg, traffic, sim);
    EXPECT_TRUE(s.run().completed);
}

TEST(BufferOrganization, PerPortArraysCostMorePerAccess)
{
    NetworkConfig per_port = NetworkConfig::vc64();
    per_port.bufferOrg = BufferOrganization::PerPort;
    NetworkConfig per_vc = NetworkConfig::vc64();
    per_vc.bufferOrg = BufferOrganization::PerVc;

    const auto mp = per_port.buildModels();
    const auto mv = per_vc.buildModels();
    EXPECT_EQ(mp.buffer->params().flits, 64u); // 8 VCs x 8 flits
    EXPECT_EQ(mv.buffer->params().flits, 8u);
    EXPECT_GT(mp.buffer->readEnergy(), 2.0 * mv.buffer->readEnergy());
}

TEST(CreditCounterEmptiness, TracksFullyEmptyVcs)
{
    CreditCounter c(3, 4);
    EXPECT_TRUE(c.empty(0));
    EXPECT_EQ(c.emptyVcs(), 3u);
    c.consume(1);
    EXPECT_FALSE(c.empty(1));
    EXPECT_EQ(c.emptyVcs(), 2u);
    c.restore(1);
    EXPECT_EQ(c.emptyVcs(), 3u);
}

TEST(CreditCounterEmptiness, UnlimitedAlwaysEmpty)
{
    CreditCounter c(2, 0, /*unlimited=*/true);
    c.consume(0);
    EXPECT_TRUE(c.empty(0));
    EXPECT_EQ(c.emptyVcs(), 2u);
}

TEST(AreaFairness, CbAndXbBuffersOccupyComparableArea)
{
    // The paper's Section 4.4 premise: the CB and XB configurations
    // "take up roughly the same area", estimated from bitline/wordline
    // and crossbar line lengths. Verify our models agree to within 2x.
    const tech::TechNode tech = tech::TechNode::chipToChip100nm();

    // XB: 5 ports x 16 VC arrays of 268 x 32.
    const power::BufferModel xb_vc(tech, {268, 32, 1, 1});
    const double xb_area = 5.0 * 16.0 * xb_vc.areaUm2();

    // CB: 4 banks of 2560 x 32 (2R2W) + 5 input FIFOs of 64 x 32.
    const power::CentralBufferModel cb(tech,
                                       {4, 2560, 32, 2, 2, 5, 2});
    const power::BufferModel cb_fifo(tech, {64, 32, 1, 1});
    const double cb_area =
        cb.areaUm2() + 5.0 * cb_fifo.areaUm2();

    EXPECT_LT(xb_area, 2.0 * cb_area);
    EXPECT_LT(cb_area, 2.0 * xb_area);
}

} // namespace
