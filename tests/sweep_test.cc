/**
 * @file
 * Tests for injection-rate sweeps and the paper's saturation
 * definition (latency > 2 x zero-load latency).
 */

#include <gtest/gtest.h>

#include "core/sweep.hh"

namespace {

using namespace orion;

TEST(Sweep, LinspaceEndpoints)
{
    const auto v = Sweep::linspace(0.02, 0.10, 5);
    ASSERT_EQ(v.size(), 5u);
    EXPECT_DOUBLE_EQ(v.front(), 0.02);
    EXPECT_DOUBLE_EQ(v.back(), 0.10);
    EXPECT_NEAR(v[2], 0.06, 1e-12);
}

TEST(Sweep, OverRatesRunsEachPoint)
{
    SimConfig s;
    s.samplePackets = 300;
    s.maxCycles = 60000;
    TrafficConfig t;
    const auto points = Sweep::overRates(NetworkConfig::vc16(), t, s,
                                         {0.02, 0.06});
    ASSERT_EQ(points.size(), 2u);
    EXPECT_DOUBLE_EQ(points[0].injectionRate, 0.02);
    EXPECT_DOUBLE_EQ(points[1].injectionRate, 0.06);
    EXPECT_TRUE(points[0].report.completed);
    EXPECT_TRUE(points[1].report.completed);
    EXPECT_LT(points[0].report.avgLatencyCycles,
              points[1].report.avgLatencyCycles);
    EXPECT_LT(points[0].report.networkPowerWatts,
              points[1].report.networkPowerWatts);
}

TEST(Sweep, ZeroLoadLatencyIsSane)
{
    SimConfig s;
    s.maxCycles = 300000;
    TrafficConfig t;
    const SweepPoint probe =
        Sweep::zeroLoadProbe(NetworkConfig::vc16(), t, s);
    EXPECT_FALSE(probe.failed());
    const double zl = probe.report.avgLatencyCycles;
    EXPECT_GT(zl, 10.0);
    EXPECT_LT(zl, 30.0);
}

TEST(Sweep, SaturationDetection)
{
    // Synthetic points: latency doubles past 0.14.
    std::vector<SweepPoint> pts(4);
    pts[0].injectionRate = 0.05;
    pts[0].report.completed = true;
    pts[0].report.avgLatencyCycles = 20.0;
    pts[1].injectionRate = 0.10;
    pts[1].report.completed = true;
    pts[1].report.avgLatencyCycles = 25.0;
    pts[2].injectionRate = 0.14;
    pts[2].report.completed = true;
    pts[2].report.avgLatencyCycles = 45.0;
    pts[3].injectionRate = 0.18;
    pts[3].report.completed = false;
    pts[3].report.avgLatencyCycles = 300.0;

    EXPECT_DOUBLE_EQ(Sweep::saturationRate(pts, 20.0), 0.14);
    // With a higher zero-load baseline only the incomplete point
    // saturates.
    EXPECT_DOUBLE_EQ(Sweep::saturationRate(pts, 23.0), 0.18);
}

TEST(Sweep, AveragedSweepAggregatesSeeds)
{
    SimConfig s;
    s.samplePackets = 400;
    s.maxCycles = 60000;
    s.seed = 10;
    TrafficConfig t;
    const auto cells =
        Sweep::overRates(NetworkConfig::vc16(), t, s, {0.05}, {}, 3);
    ASSERT_EQ(cells.size(), 3u);
    const auto pts = Sweep::average(cells, 3);
    ASSERT_EQ(pts.size(), 1u);
    const auto& p = pts[0];
    EXPECT_EQ(p.seeds, 3u);
    EXPECT_TRUE(p.allCompleted);
    EXPECT_GT(p.meanLatency, 15.0);
    // Mean lies within the observed spread, spread is nonzero but
    // small below saturation.
    EXPECT_GE(p.meanLatency, p.minLatency);
    EXPECT_LE(p.meanLatency, p.maxLatency);
    EXPECT_GT(p.maxLatency, p.minLatency);
    EXPECT_LT(p.maxLatency - p.minLatency, 0.2 * p.meanLatency);
    EXPECT_GT(p.meanPowerWatts, 0.0);
    EXPECT_NEAR(p.meanThroughput, 0.25, 0.05);
}

TEST(Sweep, AveragedSingleSeedMatchesPlainRun)
{
    SimConfig s;
    s.samplePackets = 400;
    s.maxCycles = 60000;
    s.seed = 5;
    TrafficConfig t;
    const auto plain =
        Sweep::overRates(NetworkConfig::vc16(), t, s, {0.06});
    const auto avg = Sweep::average(plain, 1);
    ASSERT_EQ(avg.size(), 1u);
    EXPECT_DOUBLE_EQ(avg[0].meanLatency,
                     plain[0].report.avgLatencyCycles);
    EXPECT_DOUBLE_EQ(avg[0].minLatency, avg[0].maxLatency);
}

TEST(Sweep, NoSaturationReturnsNegative)
{
    std::vector<SweepPoint> pts(1);
    pts[0].injectionRate = 0.05;
    pts[0].report.completed = true;
    pts[0].report.avgLatencyCycles = 21.0;
    EXPECT_LT(Sweep::saturationRate(pts, 20.0), 0.0);
}

} // namespace
