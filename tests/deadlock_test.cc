/**
 * @file
 * Tests for runtime deadlock detection and recovery. A debug worm
 * whose source route loops twice around a 4-node ring with a single
 * VC and no avoidance discipline wedges the network deterministically;
 * the detector must extract the actual wait-for cycle, poison the
 * worm, and let the run complete — or stop the run with
 * StopReason::DeadlockUnrecovered when the recovery budget is zero.
 * Also covers: the disabled-by-default fast path, the watchdog
 * backstop without a detector, baseline equivalence on healthy
 * traffic, forensics content, and detection determinism.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "base/check.hh"
#include "core/config.hh"
#include "core/forensics.hh"
#include "core/simulation.hh"
#include "net/deadlock.hh"
#include "net/network.hh"
#include "net/node.hh"
#include "router/flit.hh"

namespace {

using namespace orion;

TrafficConfig
uniform(double rate)
{
    TrafficConfig t;
    t.injectionRate = rate;
    return t;
}

/**
 * A 4-node 1D torus with one VC, shallow buffers and NO deadlock
 * avoidance: cyclic channel dependencies are possible by design, so a
 * worm that chases its own tail around the ring wedges the network.
 */
NetworkConfig
deadlockableRing()
{
    NetworkConfig c = NetworkConfig::vc16();
    c.net.dims = {4};
    c.net.routerKind = net::RouterKind::VirtualChannel;
    c.net.vcs = 1;
    c.net.bufferDepth = 4;
    c.net.deadlock = router::DeadlockMode::None;
    return c;
}

SimConfig
detectRun()
{
    SimConfig s;
    s.warmupCycles = 100;
    s.samplePackets = 50;
    s.maxCycles = 100000;
    s.watchdogCycles = 5000;
    s.deadlockDetect.enabled = true;
    s.deadlockDetect.probeCycles = 16;
    s.deadlockDetect.thresholdCycles = 256;
    s.deadlockDetect.maxRecoveries = 16;
    // The poisoned worm must not be resent: its route is a debug loop
    // that would simply deadlock again.
    s.fault.retryLimit = 0;
    return s;
}

/**
 * A worm guaranteed to deadlock the ring: 8 +x hops (two full loops,
 * ending back at node 0) followed by ejection, 40 flits — far more
 * than the ring's total buffering — so the head comes to wait on the
 * VC its own body holds.
 */
router::PacketRef
wedgeWorm()
{
    router::PacketInfo pkt;
    pkt.id = 9999999;
    pkt.src = 0;
    pkt.dst = 0;
    pkt.createdAt = 0;
    pkt.length = 40;
    pkt.sample = false;
    for (int h = 0; h < 8; ++h)
        pkt.route.push_back(
            {.port = 0, .vcClass = 0, .newRing = h == 0});
    // Ejection hop: the local port of a 1D router (ports 0, 1, 2).
    pkt.route.push_back({.port = 2, .vcClass = 0, .newRing = false});
    return router::PacketRef::make(std::move(pkt));
}

// --- disabled-by-default fast path ------------------------------------

TEST(DeadlockDetect, DisabledByDefaultBuildsNoDetector)
{
    net::DeadlockDetectConfig d;
    EXPECT_FALSE(d.enabled);

    SimConfig s;
    s.samplePackets = 200;
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), s);
    EXPECT_EQ(sim.deadlockDetector(), nullptr);
}

// --- the watchdog backstop (no detector) ------------------------------

TEST(DeadlockDetect, WatchdogStallsWithoutDetector)
{
    SimConfig s;
    s.warmupCycles = 100;
    s.samplePackets = 30;
    s.maxCycles = 20000;
    s.watchdogCycles = 2000;

    Simulation sim(deadlockableRing(), uniform(0.005), s);
    sim.network().endpoint(0).debugInjectPacket(wedgeWorm());
    const Report r = sim.run();

    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.stopReason, StopReason::WatchdogStall);
    EXPECT_TRUE(r.deadlockSuspected);
}

// --- detection + recovery (paranoid audits) ---------------------------

class DeadlockRecoveryTest : public ::testing::Test
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
    core::CheckLevel saved_ = core::CheckLevel::Cheap;
};

TEST_F(DeadlockRecoveryTest, DetectsNamesAndBreaksTheCycle)
{
    Simulation sim(deadlockableRing(), uniform(0.005), detectRun());
    sim.network().endpoint(0).debugInjectPacket(wedgeWorm());
    const Report r = sim.run();

    // Recovery poisoned the worm, the network drained, and the
    // background sample finished normally.
    ASSERT_TRUE(r.completed)
        << "stop: " << stopReasonName(r.stopReason);
    EXPECT_EQ(r.stopReason, StopReason::Completed);
    EXPECT_GE(r.deadlocksDetected, 1u);
    EXPECT_GE(r.deadlocksRecovered, 1u);
    EXPECT_GE(r.packetsLost, 1u); // the poisoned worm, retryLimit 0

    const net::DeadlockDetector* det = sim.deadlockDetector();
    ASSERT_NE(det, nullptr);
    // The worm wedges within ~100 cycles of launch; detection must
    // land within the configured threshold plus one probe of that.
    EXPECT_LE(det->lastDetectionAt(), sim::Cycle{1000});
    // The extracted wait-for cycle names real resources.
    const auto& cycle = det->lastWaitCycle();
    ASSERT_GE(cycle.size(), 2u);
    for (const auto& w : cycle) {
        EXPECT_GE(w.node, 0);
        EXPECT_LT(w.node, 4);
        EXPECT_LT(w.port, 3u);
        EXPECT_EQ(w.vc, 0u);
    }
    EXPECT_NE(det->waitGraphJson().find("wait_cycle"),
              std::string::npos);

    EXPECT_NO_THROW(sim.auditor().auditAll());
}

TEST_F(DeadlockRecoveryTest, ZeroRecoveryBudgetStopsUnrecovered)
{
    SimConfig s = detectRun();
    s.maxCycles = 20000;
    s.deadlockDetect.maxRecoveries = 0;

    Simulation sim(deadlockableRing(), uniform(0.005), s);
    sim.network().endpoint(0).debugInjectPacket(wedgeWorm());
    const Report r = sim.run();

    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.stopReason, StopReason::DeadlockUnrecovered);
    EXPECT_TRUE(r.deadlockSuspected);
    EXPECT_GE(r.deadlocksDetected, 1u);
    EXPECT_EQ(r.deadlocksRecovered, 0u);

    const net::DeadlockDetector* det = sim.deadlockDetector();
    ASSERT_NE(det, nullptr);
    EXPECT_TRUE(det->unrecoverable());

    // The forensic snapshot carries the wait-for graph and the
    // per-router frozen-cycle counters.
    const std::string snap = forensicSnapshot(sim, "deadlock test");
    EXPECT_NE(snap.find("wait_graph"), std::string::npos);
    EXPECT_NE(snap.find("frozen_cycles"), std::string::npos);
    EXPECT_NE(snap.find("deadlock"), std::string::npos);
}

// --- healthy traffic --------------------------------------------------

TEST(DeadlockDetect, HealthyTrafficSeesNoDetections)
{
    // The detector only watches; deadlock-free traffic must complete
    // with zero detections and the exact baseline latency.
    SimConfig base;
    base.warmupCycles = 500;
    base.samplePackets = 800;
    base.maxCycles = 100000;
    SimConfig watched = base;
    watched.deadlockDetect.enabled = true;

    Simulation a(NetworkConfig::vc16(), uniform(0.05), base);
    Simulation b(NetworkConfig::vc16(), uniform(0.05), watched);
    const Report ra = a.run();
    const Report rb = b.run();

    ASSERT_NE(b.deadlockDetector(), nullptr);
    EXPECT_TRUE(rb.completed);
    EXPECT_EQ(rb.deadlocksDetected, 0u);
    EXPECT_EQ(rb.deadlocksRecovered, 0u);
    EXPECT_DOUBLE_EQ(ra.avgLatencyCycles, rb.avgLatencyCycles);
    EXPECT_EQ(ra.sampleEjected, rb.sampleEjected);
}

// --- determinism ------------------------------------------------------

TEST(DeadlockDetect, DetectionAndRecoveryAreDeterministic)
{
    Report runs[2];
    sim::Cycle detectedAt[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
        Simulation sim(deadlockableRing(), uniform(0.005),
                       detectRun());
        sim.network().endpoint(0).debugInjectPacket(wedgeWorm());
        runs[i] = sim.run();
        ASSERT_NE(sim.deadlockDetector(), nullptr);
        detectedAt[i] = sim.deadlockDetector()->lastDetectionAt();
    }
    EXPECT_EQ(detectedAt[0], detectedAt[1]);
    EXPECT_EQ(runs[0].deadlocksDetected, runs[1].deadlocksDetected);
    EXPECT_EQ(runs[0].deadlocksRecovered, runs[1].deadlocksRecovered);
    EXPECT_DOUBLE_EQ(runs[0].avgLatencyCycles,
                     runs[1].avgLatencyCycles);
    EXPECT_EQ(runs[0].faultLogHash, runs[1].faultLogHash);
}

} // namespace
