/**
 * @file
 * Tests for the Simulation run protocol (paper Section 4.1): warm-up
 * exclusion, sample window, watchdog, and report contents.
 */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "core/config.hh"
#include "core/simulation.hh"

namespace {

using namespace orion;

TrafficConfig
uniform(double rate)
{
    TrafficConfig t;
    t.injectionRate = rate;
    return t;
}

TEST(Simulation, WarmupExcludedFromMeasurement)
{
    SimConfig s;
    s.warmupCycles = 1000;
    s.samplePackets = 500;
    s.maxCycles = 100000;
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.totalCycles, r.measuredCycles + 1000);
    // Events recorded during warm-up are not in the window counts:
    // rough check — window buffer writes should be close to the
    // packets x flits x hops of the window, far below total traffic
    // including warm-up only if warm-up were counted.
    EXPECT_GT(r.measuredCycles, 0u);
}

TEST(Simulation, SampleWindowExactlyRequested)
{
    SimConfig s;
    s.samplePackets = 777;
    s.maxCycles = 200000;
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.sampleInjected, 777u);
    EXPECT_EQ(r.sampleEjected, 777u);
}

TEST(Simulation, ReportFieldsArePopulated)
{
    SimConfig s;
    s.samplePackets = 500;
    s.maxCycles = 100000;
    Simulation sim(NetworkConfig::vc16(), uniform(0.06), s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.avgLatencyCycles, 10.0);
    EXPECT_GT(r.networkPowerWatts, 0.0);
    EXPECT_EQ(r.nodePowerWatts.size(), 16u);
    for (const double p : r.nodePowerWatts)
        EXPECT_GT(p, 0.0);
    EXPECT_DOUBLE_EQ(r.offeredLoad, 0.06);
    EXPECT_EQ(r.moduleCount, 32u);
    // Breakdown adds up to the network total.
    EXPECT_NEAR(r.breakdownWatts.total(), r.networkPowerWatts,
                1e-9 * r.networkPowerWatts);
    // Per-node powers add up too.
    double sum = 0.0;
    for (const double p : r.nodePowerWatts)
        sum += p;
    EXPECT_NEAR(sum, r.networkPowerWatts,
                1e-9 * r.networkPowerWatts);
}

TEST(Simulation, CycleCapMarksIncomplete)
{
    SimConfig s;
    s.samplePackets = 100000; // cannot finish
    s.maxCycles = 2000;
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), s);
    const Report r = sim.run();
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.stopReason, StopReason::MaxCycles);
    EXPECT_LE(r.measuredCycles, 2000u + 5000u);
}

TEST(Simulation, CompletedRunReportsCompletedStopReason)
{
    SimConfig s;
    s.samplePackets = 300;
    s.maxCycles = 100000;
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.stopReason, StopReason::Completed);
    EXPECT_STREQ(stopReasonName(r.stopReason), "completed");
}

TEST(Simulation, WatchdogStallIsDistinguishedFromCycleCap)
{
    // Freeze every output port of every router shortly after the
    // sample window opens: flits are in flight but nothing can move,
    // which is exactly the condition the watchdog exists to catch —
    // and the report must say "stall", not "ran out of cycles".
    SimConfig s;
    s.warmupCycles = 200;
    s.samplePackets = 5000;
    s.maxCycles = 60000;
    s.watchdogCycles = 2000;
    for (int n = 0; n < 16; ++n) {
        for (unsigned p = 0; p < 5; ++p) {
            s.fault.stalls.push_back(
                {.node = n, .port = p, .start = 400, .end = 1000000});
        }
    }
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), s);
    const Report r = sim.run();
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.deadlockSuspected);
    EXPECT_EQ(r.stopReason, StopReason::WatchdogStall);
    EXPECT_STREQ(stopReasonName(r.stopReason), "watchdog-stall");
}

TEST(Simulation, CheckFailureIsReportedNotThrown)
{
    SimConfig s;
    s.samplePackets = 200;
    s.debugPoisonRate = 0.05;
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), s);
    Report r;
    ASSERT_NO_THROW(r = sim.run());
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.stopReason, StopReason::CheckFailure);
    EXPECT_NE(r.checkFailureDiagnostic.find("poisoned"),
              std::string::npos)
        << r.checkFailureDiagnostic;
}

TEST(Simulation, ZeroTrafficTerminatesViaCap)
{
    SimConfig s;
    s.samplePackets = 100;
    s.maxCycles = 3000;
    s.watchdogCycles = 1000;
    Simulation sim(NetworkConfig::vc16(), uniform(0.0), s);
    const Report r = sim.run();
    EXPECT_FALSE(r.completed);
    EXPECT_FALSE(r.deadlockSuspected); // idle, not deadlocked
    EXPECT_EQ(r.sampleInjected, 0u);
}

TEST(Simulation, EventCountsConsistent)
{
    SimConfig s;
    s.samplePackets = 500;
    s.maxCycles = 100000;
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed);

    const auto at = [&](sim::EventType t) {
        return r.eventCounts[static_cast<unsigned>(t)];
    };
    // Flits buffered equal flits read out of buffers (drained net).
    EXPECT_NEAR(static_cast<double>(at(sim::EventType::BufferWrite)),
                static_cast<double>(at(sim::EventType::BufferRead)),
                600.0);
    // Each buffer read leads to one crossbar traversal (up to the few
    // flits in flight across the measurement boundaries).
    EXPECT_NEAR(static_cast<double>(at(sim::EventType::BufferRead)),
                static_cast<double>(
                    at(sim::EventType::CrossbarTraversal)),
                64.0);
    // Credits: one per buffer read from a network/injection port.
    EXPECT_NEAR(static_cast<double>(at(sim::EventType::BufferRead)),
                static_cast<double>(
                    at(sim::EventType::CreditTransfer)),
                64.0);
}

TEST(Simulation, ConstructorRejectsAMalformedProtocol)
{
    // The rejections the CLI applies, for library callers that build
    // a SimConfig by hand.
    std::vector<SimConfig> bad(5);
    bad[0].samplePackets = 0;
    bad[1].maxCycles = 0;
    bad[2].watchdogCycles = 0;
    bad[3].debugPoisonRate = std::numeric_limits<double>::quiet_NaN();
    bad[4].debugSegvRate = std::numeric_limits<double>::quiet_NaN();
    for (const SimConfig& s : bad) {
        EXPECT_THROW(Simulation(NetworkConfig::vc16(), uniform(0.05), s),
                     std::invalid_argument);
    }
}

TEST(Simulation, StepAdvancesWithoutProtocol)
{
    SimConfig s;
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), s);
    sim.step(100);
    EXPECT_EQ(sim.simulator().now(), 100u);
    EXPECT_GT(sim.network().totalInjected(), 0u);
}

} // namespace
