/**
 * @file
 * Deadlock-freedom and robustness stress tests: every preset router
 * configuration driven well past saturation, across seeds, with the
 * progress watchdog armed — the network must keep moving (the bubble/
 * dateline disciplines hold) and conserve packets. The saturated runs
 * go at the paranoid check level, so the network audits (net/audit.hh,
 * including every VC router's mask audit) run every 64 cycles while
 * the buffers are full.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "check_level_guard.hh"
#include "core/config.hh"
#include "core/simulation.hh"

namespace {

using namespace orion;
using test::CheckLevelGuard;

NetworkConfig
presetByName(const std::string& name)
{
    if (name == "wh64")
        return NetworkConfig::wh64();
    if (name == "vc16")
        return NetworkConfig::vc16();
    if (name == "vc64")
        return NetworkConfig::vc64();
    if (name == "vc128")
        return NetworkConfig::vc128();
    if (name == "xb")
        return NetworkConfig::xb();
    return NetworkConfig::cb();
}

class OversaturationStress
    : public ::testing::TestWithParam<
          std::tuple<const char*, std::uint64_t>>
{
};

TEST_P(OversaturationStress, NoDeadlockPastSaturation)
{
    const CheckLevelGuard paranoid(core::CheckLevel::Paranoid);
    const auto& [name, seed] = GetParam();
    NetworkConfig cfg = presetByName(name);

    TrafficConfig traffic;
    traffic.pattern = net::TrafficPattern::UniformRandom;
    traffic.injectionRate = 0.25; // far past every preset's saturation

    SimConfig sim;
    sim.samplePackets = 4000;
    sim.maxCycles = 40000;
    sim.watchdogCycles = 3000;
    sim.seed = seed;

    Simulation s(cfg, traffic, sim);
    const Report r = s.run();

    // Saturated runs need not complete, but they must never stall,
    // and every paranoid audit must hold with the buffers full.
    EXPECT_FALSE(r.deadlockSuspected)
        << name << " deadlocked at seed " << seed;
    EXPECT_NE(r.stopReason, StopReason::CheckFailure)
        << name << " at seed " << seed << ": " << r.checkFailureDiagnostic;
    // The network keeps delivering at a meaningful rate.
    EXPECT_GT(r.acceptedFlitsPerNodePerCycle, 0.2);
    // Conservation: nothing delivered that wasn't injected.
    EXPECT_LE(s.network().totalEjected(), s.network().totalInjected());
}

INSTANTIATE_TEST_SUITE_P(
    Presets, OversaturationStress,
    ::testing::Combine(::testing::Values("wh64", "vc16", "vc64",
                                         "vc128", "xb", "cb"),
                       ::testing::Values(1u, 99u)),
    [](const auto& test_info) {
        return std::string(std::get<0>(test_info.param)) + "_seed" +
               std::to_string(std::get<1>(test_info.param));
    });

class AdversarialPattern
    : public ::testing::TestWithParam<net::TrafficPattern>
{
};

TEST_P(AdversarialPattern, Vc64SurvivesHighLoad)
{
    const CheckLevelGuard paranoid(core::CheckLevel::Paranoid);
    NetworkConfig cfg = NetworkConfig::vc64();
    TrafficConfig traffic;
    traffic.pattern = GetParam();
    traffic.injectionRate = 0.2;
    traffic.broadcastSource = 9;
    traffic.hotspotNode = 9;

    SimConfig sim;
    sim.samplePackets = 3000;
    sim.maxCycles = 40000;
    sim.watchdogCycles = 3000;

    Simulation s(cfg, traffic, sim);
    const Report r = s.run();
    EXPECT_FALSE(r.deadlockSuspected);
    EXPECT_NE(r.stopReason, StopReason::CheckFailure)
        << r.checkFailureDiagnostic;
    EXPECT_GT(s.network().totalEjected(), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, AdversarialPattern,
    ::testing::Values(net::TrafficPattern::Tornado,
                      net::TrafficPattern::Transpose,
                      net::TrafficPattern::BitComplement,
                      net::TrafficPattern::Hotspot,
                      net::TrafficPattern::Broadcast));

TEST(Stress, SourceQueueAbsorbsOversubscription)
{
    // Past saturation the source queues grow (latency includes the
    // queuing time, paper 4.1): latency must blow far past zero-load.
    NetworkConfig cfg = NetworkConfig::vc16();
    TrafficConfig traffic;
    traffic.injectionRate = 0.25;
    SimConfig sim;
    sim.samplePackets = 3000;
    sim.maxCycles = 30000;
    Simulation s(cfg, traffic, sim);
    const Report r = s.run();
    EXPECT_GT(r.avgLatencyCycles, 100.0);
    std::size_t queued = 0;
    for (int n = 0; n < 16; ++n)
        queued += s.network().endpoint(n).sourceQueueLength();
    EXPECT_GT(queued, 100u);
}

TEST(Stress, LongRunEnergyKeepsAccumulating)
{
    // Energy counters must be monotone over a long saturated run (no
    // overflow/reset artifacts).
    NetworkConfig cfg = NetworkConfig::vc64();
    TrafficConfig traffic;
    traffic.injectionRate = 0.2;
    SimConfig sim;
    Simulation s(cfg, traffic, sim);
    s.step(2000);
    const double e1 = s.monitor().totalEnergy();
    s.step(2000);
    const double e2 = s.monitor().totalEnergy();
    EXPECT_GT(e1, 0.0);
    EXPECT_GT(e2, 1.5 * e1);
}

} // namespace
