/**
 * @file
 * Tests for the parallel sweep engine: the parallelFor executor, the
 * per-point seed derivation, and — the headline guarantee — that
 * fanning sweep points across workers produces bit-identical results
 * to the serial path at any job count.
 */

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/executor.hh"
#include "core/sweep.hh"
#include "sim/rng.hh"

namespace {

using namespace orion;

// --- executor ---------------------------------------------------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    constexpr std::size_t kCount = 257;
    std::vector<std::atomic<int>> visits(kCount);
    core::parallelFor(4, kCount,
                      [&](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, SingleJobRunsInlineInOrder)
{
    std::vector<std::size_t> order;
    core::parallelFor(1, 5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesExceptions)
{
    EXPECT_THROW(core::parallelFor(3, 16,
                                   [&](std::size_t i) {
                                       if (i == 7)
                                           throw std::runtime_error(
                                               "boom");
                                   }),
                 std::runtime_error);
}

TEST(ParallelFor, ZeroJobsMeansHardwareConcurrency)
{
    EXPECT_GE(core::resolveJobs(0), 1u);
    EXPECT_EQ(core::resolveJobs(3), 3u);

    std::atomic<int> ran{0};
    core::parallelFor(0, 8, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

// --- seed derivation --------------------------------------------------

TEST(DeriveSeed, DistinctAcrossGridAndDeterministic)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t r = 0; r < 16; ++r) {
        for (std::uint64_t k = 0; k < 16; ++k) {
            const std::uint64_t s = sim::deriveSeed(1, r, k);
            EXPECT_EQ(s, sim::deriveSeed(1, r, k));
            EXPECT_TRUE(seen.insert(s).second)
                << "collision at (" << r << ", " << k << ")";
        }
    }
    // Different base seeds give different streams.
    EXPECT_NE(sim::deriveSeed(1, 0, 0), sim::deriveSeed(2, 0, 0));
    // Index axes are not interchangeable.
    EXPECT_NE(sim::deriveSeed(1, 2, 3), sim::deriveSeed(1, 3, 2));
}

// --- sweeps: bit-identical at any job count ---------------------------

void
expectIdentical(const std::vector<AveragedPoint>& a,
                const std::vector<AveragedPoint>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        EXPECT_EQ(a[i].injectionRate, b[i].injectionRate);
        EXPECT_EQ(a[i].seeds, b[i].seeds);
        EXPECT_EQ(a[i].allCompleted, b[i].allCompleted);
        EXPECT_EQ(a[i].meanLatency, b[i].meanLatency);
        EXPECT_EQ(a[i].minLatency, b[i].minLatency);
        EXPECT_EQ(a[i].maxLatency, b[i].maxLatency);
        EXPECT_EQ(a[i].meanPowerWatts, b[i].meanPowerWatts);
        EXPECT_EQ(a[i].meanThroughput, b[i].meanThroughput);
    }
}

TEST(ParallelSweep, AveragedBitIdenticalAcrossJobCounts)
{
    SimConfig s;
    s.samplePackets = 200;
    s.maxCycles = 60000;
    s.seed = 7;
    TrafficConfig t;
    const std::vector<double> rates = {0.02, 0.05, 0.08};
    const unsigned seeds = 3;
    const NetworkConfig net = NetworkConfig::vc16();

    const auto averaged = [&](unsigned jobs) {
        return Sweep::average(
            Sweep::overRates(net, t, s, rates,
                             SweepOptions::withJobs(jobs), seeds),
            seeds);
    };
    const auto serial = averaged(1);
    const auto two = averaged(2);
    const auto hardware = averaged(0);

    ASSERT_EQ(serial.size(), rates.size());
    expectIdentical(serial, two);
    expectIdentical(serial, hardware);
}

TEST(ParallelSweep, OverRatesBitIdenticalAcrossJobCounts)
{
    SimConfig s;
    s.samplePackets = 200;
    s.maxCycles = 60000;
    TrafficConfig t;
    const std::vector<double> rates = {0.02, 0.04, 0.06, 0.08};
    const NetworkConfig net = NetworkConfig::vc16();

    const auto serial =
        Sweep::overRates(net, t, s, rates, SweepOptions::withJobs(1));
    const auto parallel =
        Sweep::overRates(net, t, s, rates, SweepOptions::withJobs(2));

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        const Report& a = serial[i].report;
        const Report& b = parallel[i].report;
        EXPECT_EQ(serial[i].injectionRate, parallel[i].injectionRate);
        EXPECT_EQ(a.completed, b.completed);
        EXPECT_EQ(a.avgLatencyCycles, b.avgLatencyCycles);
        EXPECT_EQ(a.p99LatencyCycles, b.p99LatencyCycles);
        EXPECT_EQ(a.networkPowerWatts, b.networkPowerWatts);
        EXPECT_EQ(a.dynamicEnergyJoules, b.dynamicEnergyJoules);
        EXPECT_EQ(a.totalCycles, b.totalCycles);
        EXPECT_EQ(a.sampleEjected, b.sampleEjected);
        EXPECT_EQ(a.eventCounts, b.eventCounts);
        EXPECT_EQ(a.nodePowerWatts, b.nodePowerWatts);
    }
}

// --- failure isolation ------------------------------------------------

TEST(ParallelSweep, PoisonedPointIsIsolatedFromSiblings)
{
    // One deliberately failing point must not take the sweep (or the
    // worker pool) down with it: siblings complete normally and the
    // failed point carries its own diagnosis.
    SimConfig s;
    s.samplePackets = 200;
    s.maxCycles = 60000;
    s.debugPoisonRate = 0.04;
    TrafficConfig t;
    const auto points = Sweep::overRates(NetworkConfig::vc16(), t, s,
                                         {0.02, 0.04, 0.06},
                                         SweepOptions::withJobs(3));
    ASSERT_EQ(points.size(), 3u);
    EXPECT_TRUE(points[0].report.completed);
    EXPECT_FALSE(points[0].failed());
    EXPECT_TRUE(points[2].report.completed);
    EXPECT_FALSE(points[2].failed());

    ASSERT_TRUE(points[1].failed());
    EXPECT_EQ(points[1].report.stopReason, StopReason::CheckFailure);
    EXPECT_NE(points[1].failureMessage.find("poisoned"),
              std::string::npos)
        << points[1].failureMessage;
    // A forensic snapshot was captured while the failed simulation
    // was still alive.
    EXPECT_NE(points[1].failureForensics.find("\"reason\""),
              std::string::npos);
    // The retry on a rederived seed was spent before giving up.
    EXPECT_EQ(points[1].attempts, 2u);
    EXPECT_EQ(points[1].report.stopReason, StopReason::CheckFailure);
}

TEST(ParallelSweep, TransientFailureRecoversViaRetry)
{
    SimConfig s;
    s.samplePackets = 200;
    s.maxCycles = 60000;
    s.debugPoisonRate = 0.04;
    s.debugPoisonTransient = true; // fails attempt 0, clean on retry
    TrafficConfig t;
    const auto points =
        Sweep::overRates(NetworkConfig::vc16(), t, s, {0.04});
    ASSERT_EQ(points.size(), 1u);
    EXPECT_FALSE(points[0].failed());
    EXPECT_TRUE(points[0].report.completed);
    EXPECT_EQ(points[0].attempts, 2u);
}

TEST(ParallelSweep, AveragedSweepExcludesFailedSeeds)
{
    SimConfig s;
    s.samplePackets = 200;
    s.maxCycles = 60000;
    s.debugPoisonRate = 0.04;
    TrafficConfig t;
    const auto cells =
        Sweep::overRates(NetworkConfig::vc16(), t, s, {0.02, 0.04},
                         SweepOptions::withJobs(2), 2);
    const auto pts = Sweep::average(cells, 2);
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_TRUE(pts[0].allCompleted);
    EXPECT_EQ(pts[0].failedSeeds, 0u);
    // Every seed of the poisoned rate fails; the point is marked, the
    // sweep still returns it, and each failed cell keeps its message.
    EXPECT_FALSE(pts[1].allCompleted);
    EXPECT_EQ(pts[1].failedSeeds, 2u);
    EXPECT_NE(cells[2].failureMessage.find("poisoned"), std::string::npos);
}

TEST(ParallelSweep, PointsIndependentOfSweptSet)
{
    // A point's result depends only on (base seed, rate index, seed
    // index) — not on which other rates are swept alongside it.
    SimConfig s;
    s.samplePackets = 200;
    s.maxCycles = 60000;
    TrafficConfig t;
    const NetworkConfig net = NetworkConfig::vc16();

    const auto pair = Sweep::overRates(net, t, s, {0.03, 0.06});
    const auto alone = Sweep::overRates(net, t, s, {0.03});
    EXPECT_EQ(pair[0].report.avgLatencyCycles,
              alone[0].report.avgLatencyCycles);
    EXPECT_EQ(pair[0].report.networkPowerWatts,
              alone[0].report.networkPowerWatts);
}

} // namespace
