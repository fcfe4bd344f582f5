/**
 * @file
 * Tests for configuration presets and validation: every paper preset
 * matches its Section 4.2/4.4 description, and malformed
 * configurations fail fast with descriptive exceptions instead of
 * corrupting a run.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/config.hh"
#include "core/simulation.hh"

namespace {

using namespace orion;

TEST(Presets, Wh64MatchesPaper)
{
    const NetworkConfig c = NetworkConfig::wh64();
    EXPECT_EQ(c.net.routerKind, net::RouterKind::Wormhole);
    EXPECT_EQ(c.net.vcs, 1u);
    EXPECT_EQ(c.net.bufferDepth, 64u);
    EXPECT_EQ(c.net.flitBits, 256u);
    EXPECT_EQ(c.net.packetLength, 5u);
    EXPECT_TRUE(c.net.wrap);
    EXPECT_EQ(c.linkType, LinkType::OnChip);
    EXPECT_DOUBLE_EQ(c.tech.freqHz, 2.0e9);
    EXPECT_NO_THROW(c.validate());
}

TEST(Presets, VcFamilyMatchesPaper)
{
    const NetworkConfig vc16 = NetworkConfig::vc16();
    EXPECT_EQ(vc16.net.vcs, 2u);
    EXPECT_EQ(vc16.net.bufferDepth, 8u);

    const NetworkConfig vc64 = NetworkConfig::vc64();
    EXPECT_EQ(vc64.net.vcs, 8u);
    EXPECT_EQ(vc64.net.bufferDepth, 8u);

    const NetworkConfig vc128 = NetworkConfig::vc128();
    EXPECT_EQ(vc128.net.vcs, 8u);
    EXPECT_EQ(vc128.net.bufferDepth, 16u);

    for (const auto& c : {vc16, vc64, vc128}) {
        EXPECT_EQ(c.net.routerKind, net::RouterKind::VirtualChannel);
        EXPECT_EQ(c.net.flitBits, 256u);
        EXPECT_NO_THROW(c.validate());
    }
}

TEST(Presets, ChipToChipPairMatchesPaper)
{
    const NetworkConfig xb = NetworkConfig::xb();
    EXPECT_EQ(xb.net.vcs, 16u);
    EXPECT_EQ(xb.net.bufferDepth, 268u);
    EXPECT_EQ(xb.net.flitBits, 32u);
    EXPECT_EQ(xb.linkType, LinkType::ChipToChip);
    EXPECT_DOUBLE_EQ(xb.c2cLinkPowerWatts, 3.0);
    EXPECT_EQ(xb.bufferOrg, BufferOrganization::PerVc);

    const NetworkConfig cb = NetworkConfig::cb();
    EXPECT_EQ(cb.net.routerKind, net::RouterKind::CentralBuffer);
    EXPECT_EQ(cb.net.centralBuffer.capacityFlits, 4u * 2560u);
    EXPECT_EQ(cb.net.centralBuffer.writePorts, 2u);
    EXPECT_EQ(cb.net.centralBuffer.readPorts, 2u);
    EXPECT_DOUBLE_EQ(cb.tech.freqHz, 1.0e9);

    EXPECT_NO_THROW(xb.validate());
    EXPECT_NO_THROW(cb.validate());
}

TEST(Presets, BuildModelsMatchesRouterShape)
{
    const auto vc = NetworkConfig::vc64().buildModels();
    ASSERT_TRUE(vc.buffer && vc.crossbar && vc.switchArbiter &&
                vc.vcArbiter && vc.onChipLink);
    EXPECT_FALSE(vc.centralBuffer || vc.chipToChipLink);
    EXPECT_EQ(vc.switchArbiter->params().requests, 4u); // 4:1
    EXPECT_EQ(vc.vcArbiter->params().requests, 32u);    // 4 x 8

    const auto cb = NetworkConfig::cb().buildModels();
    ASSERT_TRUE(cb.buffer && cb.centralBuffer && cb.chipToChipLink);
    EXPECT_FALSE(cb.crossbar || cb.vcArbiter || cb.onChipLink);
    EXPECT_EQ(cb.centralBuffer->params().rowsPerBank, 2560u);
}

TEST(Validation, RejectsBadTopology)
{
    NetworkConfig c = NetworkConfig::vc16();
    c.net.dims = {};
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c.net.dims = {4, 1};
    EXPECT_THROW(c.validate(), std::invalid_argument);
    // Router ports (2 per dimension + local) must fit a 64-bit mask.
    c.net.dims.assign(32, 2);
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Validation, BoundsVcsToOneMask)
{
    // A port's VCs must fit the router's 64-bit per-port VC masks.
    NetworkConfig c = NetworkConfig::vc64();
    c.net.vcs = 64;
    EXPECT_NO_THROW(c.validate());
    c.net.vcs = 65;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Validation, BoundsNodeCountToIntIds)
{
    // Node ids are int. Checked through validate() only: such a
    // network is never built.
    NetworkConfig c = NetworkConfig::vc16();
    c.net.dims.assign(17, 4); // 4^17 = 2^34 would wrap unsigned to 0
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c.net.dims.assign(31, 2); // 2^31 = INT_MAX + 1
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Validation, RejectsVcsOnNonVcRouters)
{
    NetworkConfig c = NetworkConfig::wh64();
    c.net.vcs = 2;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Validation, RejectsDatelineWithOneVc)
{
    NetworkConfig c = NetworkConfig::wh64();
    c.net.deadlock = router::DeadlockMode::Dateline;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Validation, RejectsShallowBubbleBuffers)
{
    NetworkConfig c = NetworkConfig::wh64();
    c.net.bufferDepth = 7; // < 2 x packetLength
    EXPECT_THROW(c.validate(), std::invalid_argument);

    NetworkConfig v = NetworkConfig::vc64();
    v.net.bufferDepth = 4; // < packetLength for slot bubble
    EXPECT_THROW(v.validate(), std::invalid_argument);
}

TEST(Validation, RejectsBadCentralBuffer)
{
    NetworkConfig c = NetworkConfig::cb();
    c.net.centralBuffer.capacityFlits = 3; // < packet, not 4-bankable
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = NetworkConfig::cb();
    c.net.centralBuffer.writePorts = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Validation, RejectsBadDimOrder)
{
    NetworkConfig c = NetworkConfig::vc16();
    c.net.dimOrder = {0};
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c.net.dimOrder = {0, 0};
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c.net.dimOrder = {1, 0};
    EXPECT_NO_THROW(c.validate());
}

TEST(Validation, RejectsBadTraffic)
{
    const NetworkConfig c = NetworkConfig::vc16();
    TrafficConfig t;
    t.injectionRate = 1.5;
    EXPECT_THROW(validateTraffic(c, t), std::invalid_argument);

    t = {};
    t.pattern = net::TrafficPattern::Broadcast;
    t.broadcastSource = 99;
    EXPECT_THROW(validateTraffic(c, t), std::invalid_argument);

    t = {};
    t.pattern = net::TrafficPattern::Hotspot;
    t.hotspotNode = -3;
    EXPECT_THROW(validateTraffic(c, t), std::invalid_argument);

    t = {};
    t.pattern = net::TrafficPattern::Trace; // no trace supplied
    EXPECT_THROW(validateTraffic(c, t), std::invalid_argument);
}

TEST(Validation, SimulationConstructorValidates)
{
    NetworkConfig c = NetworkConfig::vc16();
    c.net.vcs = 0;
    TrafficConfig t;
    SimConfig s;
    EXPECT_THROW(Simulation(c, t, s), std::invalid_argument);
}

TEST(Report, LatencyQuantilesOrdered)
{
    TrafficConfig t;
    t.injectionRate = 0.08;
    SimConfig s;
    s.samplePackets = 1500;
    s.maxCycles = 100000;
    Simulation sim(NetworkConfig::vc16(), t, s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.p50LatencyCycles, 0.0);
    EXPECT_LE(r.p50LatencyCycles, r.p95LatencyCycles);
    EXPECT_LE(r.p95LatencyCycles, r.p99LatencyCycles);
    EXPECT_LE(r.p99LatencyCycles, r.maxLatencyCycles + 1.0);
    // The mean sits between the median and the tail for a right-
    // skewed queueing distribution.
    EXPECT_GT(r.maxLatencyCycles, r.avgLatencyCycles);
}

} // namespace
