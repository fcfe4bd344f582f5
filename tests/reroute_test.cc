/**
 * @file
 * Tests for fault-tolerant source rerouting: the disabled-by-default
 * fast path, baseline equivalence when no outage ever fires, detour
 * delivery around a permanent mid-run outage, route convergence under
 * link flapping (outage -> repair -> outage), fail-fast unreachable
 * accounting when a destination is partitioned, and bit-identical
 * sweep results at any job count — all under the paranoid audits.
 */

#include <gtest/gtest.h>

#include "base/check.hh"
#include "core/config.hh"
#include "core/simulation.hh"
#include "core/sweep.hh"
#include "net/fault.hh"
#include "net/health.hh"

namespace {

using namespace orion;

TrafficConfig
uniform(double rate)
{
    TrafficConfig t;
    t.injectionRate = rate;
    return t;
}

SimConfig
shortRun()
{
    SimConfig s;
    s.warmupCycles = 500;
    s.samplePackets = 1500;
    s.maxCycles = 100000;
    return s;
}

/** A 1D 4-node ring (vc16 discipline) — small enough to partition a
 * node by killing its two outgoing links. */
NetworkConfig
ring4()
{
    NetworkConfig c = NetworkConfig::vc16();
    c.net.dims = {4};
    return c;
}

// --- disabled-by-default fast path ------------------------------------

TEST(Reroute, DisabledByDefaultBuildsNoMonitor)
{
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), shortRun());
    EXPECT_EQ(sim.healthMonitor(), nullptr);
    EXPECT_EQ(sim.faultInjector(), nullptr);
}

TEST(Reroute, EnabledWithoutOutagesMatchesBaseline)
{
    // Sources draw the normal DOR route before consulting the health
    // view, so enabling rerouting without any outage must not perturb
    // the RNG streams or the schedule.
    const SimConfig base = shortRun();
    SimConfig rr = shortRun();
    rr.rerouteOnOutage = true;

    Simulation a(NetworkConfig::vc16(), uniform(0.05), base);
    Simulation b(NetworkConfig::vc16(), uniform(0.05), rr);
    const Report ra = a.run();
    const Report rb = b.run();

    ASSERT_NE(b.healthMonitor(), nullptr);
    EXPECT_TRUE(rb.completed);
    EXPECT_EQ(rb.reroutes, 0u);
    EXPECT_EQ(rb.packetsUnreachable, 0u);
    EXPECT_DOUBLE_EQ(ra.avgLatencyCycles, rb.avgLatencyCycles);
    EXPECT_EQ(ra.sampleEjected, rb.sampleEjected);
}

// --- delivery under outages (paranoid audits) -------------------------

class RerouteRecoveryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_ = core::checkLevel();
        core::setCheckLevel(core::CheckLevel::Paranoid);
    }
    void TearDown() override { core::setCheckLevel(saved_); }

  private:
    core::CheckLevel saved_{};
};

TEST_F(RerouteRecoveryTest, PermanentMidRunOutageReroutesAndDelivers)
{
    SimConfig s = shortRun();
    s.rerouteOnOutage = true;
    s.auditCycles = 256;
    // Link 0 (node 0, +x) dies mid-run and never recovers.
    s.fault.outages.push_back(
        {.start = 1500, .end = 1000000, .link = 0});

    Simulation sim(NetworkConfig::vc16(), uniform(0.05), s);
    const Report r = sim.run();

    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.stopReason, StopReason::Completed);
    EXPECT_GT(r.reroutes, 0u);
    // A 4x4 torus stays connected with one dead link: nothing may be
    // declared unreachable, and >= 95% of the sample must arrive.
    EXPECT_EQ(r.packetsUnreachable, 0u);
    EXPECT_GE(static_cast<double>(r.sampleEjected),
              0.95 * static_cast<double>(r.sampleInjected));
    EXPECT_NO_THROW(sim.auditor().auditAll());
}

TEST_F(RerouteRecoveryTest, FlappingLinkConvergesAndDelivers)
{
    // Outage -> repair -> outage on the same link: sources must
    // converge back to DOR routes after each repair and detour again
    // on the second outage.
    SimConfig s = shortRun();
    s.rerouteOnOutage = true;
    s.auditCycles = 256;
    s.fault.outages.push_back({.start = 600, .end = 1200, .link = 0});
    s.fault.outages.push_back({.start = 1800, .end = 2400, .link = 0});

    Simulation sim(NetworkConfig::vc16(), uniform(0.05), s);
    const Report r = sim.run();

    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.reroutes, 0u);
    EXPECT_EQ(r.packetsUnreachable, 0u);
    EXPECT_GE(static_cast<double>(r.sampleEjected),
              0.95 * static_cast<double>(r.sampleInjected));
    EXPECT_NO_THROW(sim.auditor().auditAll());

    // Flapping is deterministic: an identical run reproduces the
    // exact latency and fault log.
    Simulation again(NetworkConfig::vc16(), uniform(0.05), s);
    const Report r2 = again.run();
    EXPECT_DOUBLE_EQ(r.avgLatencyCycles, r2.avgLatencyCycles);
    EXPECT_EQ(r.faultLogHash, r2.faultLogHash);
    EXPECT_EQ(r.reroutes, r2.reroutes);
}

TEST_F(RerouteRecoveryTest, PartitionedDestinationFailsFast)
{
    // Kill both outgoing links of node 0 on a 4-node ring for the
    // whole run: node 0 can reach nobody, so its packets must be
    // dropped as unreachable at the source instead of burning the
    // retry budget, while the surviving 1-2-3 pairs still deliver.
    SimConfig s = shortRun();
    s.rerouteOnOutage = true;
    s.auditCycles = 256;
    s.fault.outages.push_back({.start = 0, .end = 1000000, .link = 0});
    s.fault.outages.push_back({.start = 0, .end = 1000000, .link = 1});

    Simulation sim(ring4(), uniform(0.05), s);
    const Report r = sim.run();

    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.stopReason, StopReason::Completed);
    EXPECT_GT(r.packetsUnreachable, 0u);
    // Ties in 1D DOR make some surviving-pair routes cross node 0's
    // dead links; those detour instead of dying.
    EXPECT_GT(r.reroutes, 0u);
    EXPECT_NO_THROW(sim.auditor().auditAll());
}

// --- sweep determinism ------------------------------------------------

TEST(Reroute, SweepResultsBitIdenticalAcrossJobCounts)
{
    SimConfig s = shortRun();
    s.samplePackets = 600;
    s.rerouteOnOutage = true;
    s.fault.linkBitErrorRate = 2e-6;
    s.fault.outages.push_back({.start = 600, .end = 1200, .link = 0});

    const NetworkConfig net = NetworkConfig::vc16();
    const TrafficConfig t = uniform(0.05);
    const std::vector<double> rates{0.03, 0.05};
    const auto serial = Sweep::overRates(net, t, s, rates, SweepOptions::withJobs(1));
    const auto threaded =
        Sweep::overRates(net, t, s, rates, SweepOptions::withJobs(3));

    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const Report& a = serial[i].report;
        const Report& b = threaded[i].report;
        EXPECT_DOUBLE_EQ(a.avgLatencyCycles, b.avgLatencyCycles);
        EXPECT_EQ(a.faultLogHash, b.faultLogHash);
        EXPECT_EQ(a.reroutes, b.reroutes);
        EXPECT_EQ(a.packetsLost, b.packetsLost);
        EXPECT_EQ(a.packetsUnreachable, b.packetsUnreachable);
        EXPECT_EQ(a.completed, b.completed);
    }
}

} // namespace
