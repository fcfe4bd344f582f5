/**
 * @file
 * Tests for deterministic fault injection and link-level recovery:
 * config validation, the zero-fault fast path, schedule determinism
 * (including across sweep job counts), end-to-end retransmission
 * delivery under the network audits, retry-limit exhaustion, and port
 * stall schedules.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "base/check.hh"
#include "core/config.hh"
#include "core/simulation.hh"
#include "core/sweep.hh"
#include "net/fault.hh"

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

// --- configuration ----------------------------------------------------

TEST(FaultConfig, DefaultsAreDisabled)
{
    FaultConfig f;
    EXPECT_FALSE(f.enabled());
    EXPECT_NO_THROW(f.validate());
}

TEST(FaultConfig, ValidateRejectsBadValues)
{
    {
        FaultConfig f;
        f.linkBitErrorRate = 1.5;
        EXPECT_THROW(f.validate(), std::invalid_argument);
    }
    {
        FaultConfig f;
        f.linkBitErrorRate = -0.1;
        EXPECT_THROW(f.validate(), std::invalid_argument);
    }
    {
        FaultConfig f;
        f.outages.push_back({.start = 100, .end = 100});
        EXPECT_THROW(f.validate(), std::invalid_argument);
    }
    {
        FaultConfig f;
        f.stalls.push_back(
            {.node = -2, .port = 0, .start = 0, .end = 10});
        EXPECT_THROW(f.validate(), std::invalid_argument);
    }
    {
        FaultConfig f;
        f.retryBackoffCycles = 0;
        f.linkBitErrorRate = 1e-6;
        EXPECT_THROW(f.validate(), std::invalid_argument);
    }
    {
        FaultConfig f;
        f.retryLimit = 33;
        EXPECT_THROW(f.validate(), std::invalid_argument);
    }
}

TEST(FaultConfig, ScheduleAgainstMissingTopologyIsRejected)
{
    FaultConfig f;
    f.stalls.push_back({.node = 99, .port = 0, .start = 0, .end = 10});
    net::FaultInjector inj(f, 1, 64);
    for (int i = 0; i < 4; ++i)
        inj.registerLink();
    EXPECT_THROW(inj.finalizeTopology(16, 5), std::invalid_argument);

    FaultConfig g;
    g.outages.push_back({.start = 0, .end = 10, .link = 77});
    net::FaultInjector inj2(g, 1, 64);
    for (int i = 0; i < 4; ++i)
        inj2.registerLink();
    EXPECT_THROW(inj2.finalizeTopology(16, 5), std::invalid_argument);
}

// --- zero-fault fast path ---------------------------------------------

TEST(Fault, ZeroFaultConfigIsInert)
{
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), shortRun());
    EXPECT_EQ(sim.faultInjector(), nullptr);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.flitsCorrupted, 0u);
    EXPECT_EQ(r.flitsDiscarded, 0u);
    EXPECT_EQ(r.packetsRetransmitted, 0u);
    EXPECT_EQ(r.packetsLost, 0u);
    EXPECT_EQ(r.faultLogHash, 0u);
}

// --- determinism ------------------------------------------------------

SimConfig
faultyRun()
{
    SimConfig s = shortRun();
    s.fault.linkBitErrorRate = 2e-6;
    s.fault.outages.push_back({.start = 1200, .end = 1500, .link = -1});
    return s;
}

TEST(Fault, SameSeedGivesIdenticalFaultLog)
{
    const SimConfig s = faultyRun();
    Simulation a(NetworkConfig::vc16(), uniform(0.05), s);
    Simulation b(NetworkConfig::vc16(), uniform(0.05), s);
    const Report ra = a.run();
    const Report rb = b.run();

    ASSERT_NE(a.faultInjector(), nullptr);
    EXPECT_GT(a.faultInjector()->eventCount(), 0u);
    EXPECT_EQ(a.faultInjector()->eventCount(),
              b.faultInjector()->eventCount());
    EXPECT_EQ(ra.faultLogHash, rb.faultLogHash);
    EXPECT_EQ(a.faultInjector()->log(), b.faultInjector()->log());
    EXPECT_EQ(ra.avgLatencyCycles, rb.avgLatencyCycles);
    EXPECT_EQ(ra.packetsRetransmitted, rb.packetsRetransmitted);
}

TEST(Fault, ExplicitFaultSeedDecouplesFromTrafficSeed)
{
    SimConfig a = faultyRun();
    a.fault.faultSeed = 42;
    SimConfig b = faultyRun();
    b.fault.faultSeed = 43;
    Simulation ra(NetworkConfig::vc16(), uniform(0.05), a);
    Simulation rb(NetworkConfig::vc16(), uniform(0.05), b);
    const Report x = ra.run();
    const Report y = rb.run();
    EXPECT_NE(x.faultLogHash, y.faultLogHash);
}

TEST(Fault, SweepFaultScheduleIdenticalAcrossJobCounts)
{
    const SimConfig s = faultyRun();
    TrafficConfig t;
    const std::vector<double> rates = {0.03, 0.05, 0.07};
    const NetworkConfig net = NetworkConfig::vc16();

    const auto serial = Sweep::overRates(net, t, s, rates, SweepOptions::withJobs(1));
    const auto parallel =
        Sweep::overRates(net, t, s, rates, SweepOptions::withJobs(3));

    ASSERT_EQ(serial.size(), parallel.size());
    bool any_faults = false;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        const Report& a = serial[i].report;
        const Report& b = parallel[i].report;
        EXPECT_EQ(a.faultLogHash, b.faultLogHash);
        EXPECT_EQ(a.flitsCorrupted, b.flitsCorrupted);
        EXPECT_EQ(a.packetsRetransmitted, b.packetsRetransmitted);
        EXPECT_EQ(a.avgLatencyCycles, b.avgLatencyCycles);
        EXPECT_EQ(a.networkPowerWatts, b.networkPowerWatts);
        any_faults = any_faults || a.flitsCorrupted > 0;
    }
    EXPECT_TRUE(any_faults) << "test injected no faults at all";
}

// --- recovery under audit ---------------------------------------------

/** Paranoid checks for the duration of one test. */
class FaultRecoveryTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        saved_ = core::checkLevel();
        core::setCheckLevel(core::CheckLevel::Paranoid);
    }
    void TearDown() override { core::setCheckLevel(saved_); }

  private:
    core::CheckLevel saved_ = core::CheckLevel::Cheap;
};

void
expectRecovers(const NetworkConfig& cfg)
{
    SimConfig s = faultyRun();
    s.auditCycles = 256;
    Simulation sim(cfg, uniform(0.05), s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed) << "stop: " << stopReasonName(r.stopReason)
                             << " " << r.checkFailureDiagnostic;
    // Every sample packet was delivered despite corruption: faults
    // occurred, recovery retransmitted, nothing was abandoned.
    EXPECT_EQ(r.sampleEjected, r.sampleInjected);
    EXPECT_GT(r.flitsCorrupted + r.flitsOutageDropped, 0u);
    EXPECT_GT(r.flitsDiscarded, 0u);
    EXPECT_GT(r.packetsRetransmitted, 0u);
    EXPECT_EQ(r.packetsLost, 0u);
    // Ledgers balance at drain with faults in play.
    EXPECT_NO_THROW(sim.auditor().auditAll());
}

TEST_F(FaultRecoveryTest, VcNetworkDeliversAllPacketsUnderFaults)
{
    expectRecovers(NetworkConfig::vc16());
}

TEST_F(FaultRecoveryTest, WormholeNetworkDeliversAllPacketsUnderFaults)
{
    expectRecovers(NetworkConfig::wh64());
}

TEST_F(FaultRecoveryTest,
       CentralBufferNetworkDeliversAllPacketsUnderFaults)
{
    expectRecovers(NetworkConfig::cb());
}

TEST_F(FaultRecoveryTest, RetryLimitExhaustionCountsPacketsLost)
{
    // One link is dead for the whole run and retries are exhausted
    // immediately: packets routed across it are declared lost, the
    // run still terminates, and the ledgers still balance (losses are
    // counted, not leaked).
    SimConfig s = shortRun();
    s.samplePackets = 600;
    s.fault.outages.push_back(
        {.start = 0, .end = 1000000, .link = 0});
    s.fault.retryLimit = 0;
    s.auditCycles = 256;
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed) << "stop: " << stopReasonName(r.stopReason)
                             << " " << r.checkFailureDiagnostic;
    EXPECT_GT(r.packetsLost, 0u);
    EXPECT_EQ(r.packetsRetransmitted, 0u);
    EXPECT_NO_THROW(sim.auditor().auditAll());
}

// --- port stalls ------------------------------------------------------

TEST(Fault, PortStallScheduleIsHonored)
{
    FaultConfig f;
    f.stalls.push_back({.node = 3, .port = 2, .start = 100, .end = 200});
    net::FaultInjector inj(f, 1, 64);
    inj.finalizeTopology(16, 5);
    EXPECT_FALSE(inj.portStalled(3, 2, 99));
    EXPECT_TRUE(inj.portStalled(3, 2, 100));
    EXPECT_TRUE(inj.portStalled(3, 2, 199));
    EXPECT_FALSE(inj.portStalled(3, 2, 200));
    EXPECT_FALSE(inj.portStalled(3, 3, 150));
    EXPECT_FALSE(inj.portStalled(4, 2, 150));
}

TEST_F(FaultRecoveryTest, StalledPortDelaysButDeliversTraffic)
{
    SimConfig s = shortRun();
    s.auditCycles = 256;
    SimConfig stalled = s;
    for (unsigned p = 0; p < 5; ++p) {
        stalled.fault.stalls.push_back(
            {.node = 5, .port = p, .start = 600, .end = 900});
    }

    Simulation base(NetworkConfig::vc16(), uniform(0.05), s);
    const Report rb = base.run();
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), stalled);
    const Report r = sim.run();

    ASSERT_TRUE(r.completed) << "stop: " << stopReasonName(r.stopReason)
                             << " " << r.checkFailureDiagnostic;
    EXPECT_EQ(r.sampleEjected, r.sampleInjected);
    // Stalling every output of a router mid-measurement must cost
    // latency somewhere.
    EXPECT_GT(r.avgLatencyCycles, rb.avgLatencyCycles);
    EXPECT_NO_THROW(sim.auditor().auditAll());
}

} // namespace
