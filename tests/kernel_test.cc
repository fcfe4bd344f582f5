/**
 * @file
 * Tests for the simulation kernel: event bus dispatch, registered
 * channels (1-cycle latency), the simulator loop, the packet pool
 * behind packet allocation (including that finished fault and
 * deadlock-recovery runs release every packet), and bit-identity of
 * the hot-path optimizations on the hardest configuration (faults +
 * rerouting + deadlock recovery under paranoid audits).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "base/cancel.hh"
#include "base/check.hh"
#include "core/config.hh"
#include "core/simulation.hh"
#include "event_recorder.hh"
#include "net/fault.hh"
#include "net/network.hh"
#include "net/trace.hh"
#include "router/flit.hh"
#include "sim/event.hh"
#include "sim/module.hh"
#include "sim/simulator.hh"

namespace {

using namespace orion::sim;

/** Counts the events it is subscribed to into the int at @p ctx. */
void
countEvent(void* ctx, const Event&)
{
    ++*static_cast<int*>(ctx);
}

TEST(EventBus, DispatchesToSubscribersOfType)
{
    EventBus bus;
    int buffer_events = 0;
    int arb_events = 0;
    bus.subscribeRaw(EventType::BufferWrite, &countEvent, &buffer_events);
    bus.subscribeRaw(EventType::Arbitration, &countEvent, &arb_events);

    bus.emit({EventType::BufferWrite, 0, 0, 0, 0, 0});
    bus.emit({EventType::BufferWrite, 1, 0, 3, 4, 1});
    bus.emit({EventType::Arbitration, 0, 0, 0, 0, 2});

    EXPECT_EQ(buffer_events, 2);
    EXPECT_EQ(arb_events, 1);
}

TEST(EventBus, PassesPayloadThrough)
{
    EventBus bus;
    std::vector<Event> events;
    orion::test::recordEvents(bus, {EventType::LinkTraversal}, events);
    bus.emit({EventType::LinkTraversal, 7, 3, 128, 9, 42});
    ASSERT_EQ(events.size(), 1u);
    const Event& seen = events[0];
    EXPECT_EQ(seen.node, 7);
    EXPECT_EQ(seen.component, 3);
    EXPECT_EQ(seen.deltaA, 128u);
    EXPECT_EQ(seen.deltaB, 9u);
    EXPECT_EQ(seen.cycle, 42u);
}

TEST(EventBus, CountsEvenWithoutSubscribers)
{
    EventBus bus;
    bus.emit({EventType::CreditTransfer, 0, 0, 0, 0, 0});
    bus.emit({EventType::CreditTransfer, 0, 0, 0, 0, 1});
    EXPECT_EQ(bus.emittedCount(EventType::CreditTransfer), 2u);
    EXPECT_EQ(bus.emittedCount(EventType::BufferRead), 0u);
}

TEST(EventBus, MultipleListenersAllFire)
{
    EventBus bus;
    int a = 0;
    int b = 0;
    bus.subscribeRaw(EventType::BufferRead, &countEvent, &a);
    bus.subscribeRaw(EventType::BufferRead, &countEvent, &b);
    bus.emit({EventType::BufferRead, 0, 0, 0, 0, 0});
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 1);
}

TEST(EventNames, AreUniqueAndNonNull)
{
    std::vector<std::string> names;
    for (unsigned t = 0; t < kNumEventTypes; ++t)
        names.push_back(eventTypeName(static_cast<EventType>(t)));
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_FALSE(names[i].empty());
        for (std::size_t j = i + 1; j < names.size(); ++j)
            EXPECT_NE(names[i], names[j]);
    }
}

TEST(Channel, DeliversNextCycle)
{
    Channel<int> ch;
    ch.write(5);
    EXPECT_FALSE(ch.valid());
    ch.advance();
    ASSERT_TRUE(ch.valid());
    EXPECT_EQ(ch.peek(), 5);
    EXPECT_EQ(ch.read(), 5);
    EXPECT_FALSE(ch.valid());
}

TEST(Channel, EmptyAdvanceDeliversNothing)
{
    Channel<int> ch;
    ch.advance();
    EXPECT_FALSE(ch.valid());
}

TEST(Channel, BackToBackMessages)
{
    Channel<int> ch;
    ch.write(1);
    ch.advance();
    ch.write(2); // staged while 1 is current
    EXPECT_EQ(ch.read(), 1);
    ch.advance();
    EXPECT_EQ(ch.read(), 2);
}

/** A module that counts its cycles and pings a channel. */
class Counter : public Module
{
  public:
    Counter(Channel<int>* out)
        : Module("counter", 0), out_(out)
    {
    }

    void
    cycle(Cycle now) override
    {
        ++cycles_;
        if (out_)
            out_->write(static_cast<int>(now));
    }

    int cycles() const { return cycles_; }

  private:
    Channel<int>* out_;
    int cycles_ = 0;
};

/** A module that records what it receives. */
class Sink : public Module
{
  public:
    Sink(Channel<int>* in)
        : Module("sink", 1), in_(in)
    {
    }

    void
    cycle(Cycle) override
    {
        if (in_->valid())
            received_.push_back(in_->read());
    }

    const std::vector<int>& received() const { return received_; }

  private:
    Channel<int>* in_;
    std::vector<int> received_;
};

TEST(Simulator, RunsModulesEveryCycle)
{
    Simulator sim;
    Counter c(nullptr);
    sim.add(&c);
    sim.run(10);
    EXPECT_EQ(c.cycles(), 10);
    EXPECT_EQ(sim.now(), 10u);
    EXPECT_EQ(sim.moduleCount(), 1u);
}

TEST(Simulator, ChannelAddsExactlyOneCycleLatency)
{
    Simulator sim;
    Channel<int> ch;
    Counter producer(&ch);
    Sink consumer(&ch);
    sim.add(&producer);
    sim.add(&consumer);
    sim.addChannel(&ch);

    sim.run(5);
    // Written at cycles 0..4; received at cycles 1..4 => values 0..3.
    ASSERT_EQ(consumer.received().size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(consumer.received()[i], i);
}

TEST(Simulator, RunUntilStopsOnPredicate)
{
    Simulator sim;
    Counter c(nullptr);
    sim.add(&c);
    const bool hit =
        sim.runUntil([&] { return c.cycles() >= 3; }, 100);
    EXPECT_TRUE(hit);
    EXPECT_EQ(c.cycles(), 3);
}

TEST(Simulator, RunUntilRespectsCap)
{
    Simulator sim;
    Counter c(nullptr);
    sim.add(&c);
    const bool hit = sim.runUntil([] { return false; }, 7);
    EXPECT_FALSE(hit);
    EXPECT_EQ(sim.now(), 7u);
}

using orion::core::CancelCause;
using orion::core::CancelToken;

/** A module that fires a cancel token during cycle @p at. */
class Canceller : public Module
{
  public:
    Canceller(CancelToken* token, Cycle at)
        : Module("canceller", 2), token_(token), at_(at)
    {
    }

    void
    cycle(Cycle now) override
    {
        if (now == at_)
            token_->cancel(CancelCause::Interrupt);
    }

  private:
    CancelToken* token_;
    Cycle at_;
};

TEST(Simulator, TokenFiredBeforeTheCallRunsNoCycle)
{
    CancelToken token;
    token.cancel(CancelCause::Interrupt);
    Simulator sim;
    Counter c(nullptr);
    sim.add(&c);
    sim.setCancel(&token);

    sim.run(10);
    EXPECT_EQ(sim.now(), 0u);
    // runUntil reports done() as it stands when it stops.
    EXPECT_TRUE(sim.runUntil([] { return true; }, 10));
    EXPECT_FALSE(sim.runUntil([] { return false; }, 10));
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_EQ(c.cycles(), 0);
}

TEST(Simulator, TokenFiredDuringACycleStopsBothLoopsAfterIt)
{
    constexpr Cycle k = 5;
    for (const bool until : {false, true}) {
        CancelToken token;
        Simulator sim;
        Canceller stopper(&token, k);
        sim.add(&stopper);
        sim.setCancel(&token);
        if (until)
            EXPECT_FALSE(sim.runUntil([] { return false; }, 100));
        else
            sim.run(100);
        EXPECT_EQ(sim.now(), k + 1) << (until ? "runUntil" : "run");
        EXPECT_TRUE(sim.cancelled());
    }
}

// --- packet pool -----------------------------------------------------

using orion::router::PacketInfo;
using orion::router::PacketPool;
using orion::router::PacketRef;

TEST(PacketPool, NoIdentityReuseWithinLifetimeWindow)
{
    // While a packet is held, acquire() must never hand out the same
    // address again — recycling only draws from released packets.
    PacketPool pool;
    std::vector<PacketRef> live;
    std::set<const PacketInfo*> addresses;
    for (int i = 0; i < 256; ++i) {
        live.push_back(pool.acquire());
        const bool fresh = addresses.insert(live.back().get()).second;
        EXPECT_TRUE(fresh) << "live packet handed out twice";
    }
    EXPECT_EQ(pool.allocatedCount(), 256u);
    EXPECT_EQ(pool.recycledCount(), 0u);
    EXPECT_EQ(pool.liveCount(), 256u);
}

TEST(PacketPool, ReleasedPacketsAreRecycledNotReallocated)
{
    PacketPool pool;
    PacketRef a = pool.acquire();
    const PacketInfo* addr = a.get();
    PacketRef copy = a;
    a.reset();
    EXPECT_EQ(pool.freeCount(), 0u) << "a copy still holds the packet";
    copy.reset();
    ASSERT_EQ(pool.freeCount(), 1u);
    PacketRef b = pool.acquire();
    // LIFO free list: the most recently parked packet comes back.
    EXPECT_EQ(b.get(), addr);
    EXPECT_EQ(pool.allocatedCount(), 1u);
    EXPECT_EQ(pool.recycledCount(), 1u);
}

TEST(PacketPool, LedgerBalances)
{
    // allocated + recycled == returned + live at every point, and
    // once everything is released the whole population is parked.
    PacketPool pool;
    std::vector<PacketRef> live;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 50; ++i)
            live.push_back(pool.acquire());
        EXPECT_EQ(pool.liveCount(), live.size());
        live.resize(live.size() / 2);
        EXPECT_EQ(pool.liveCount(), live.size());
        // Every packet ever constructed is either handed out or
        // parked — nothing escapes, nothing is double-counted.
        EXPECT_EQ(pool.allocatedCount(),
                  pool.liveCount() + pool.freeCount());
    }
    live.clear();
    EXPECT_EQ(pool.liveCount(), 0u);
    EXPECT_EQ(pool.freeCount(), pool.allocatedCount());
}

TEST(PacketPool, PacketsOutlivingThePoolStillRelease)
{
    PacketRef survivor;
    PacketRef second;
    {
        PacketPool pool;
        survivor = pool.acquire();
        survivor.edit().id = 7;
        second = survivor;
        pool.acquire().reset(); // leaves one parked packet behind
    }
    // The pool's state outlives it until its last packet is released;
    // releasing after the pool's death must not crash or leak (the
    // ASan leg verifies).
    EXPECT_EQ(survivor->id, 7u);
    survivor.reset();
    EXPECT_EQ(second->id, 7u);
    second.reset();
}

/** A finite trace of @p packets packets over @p nodes nodes, two
 * cycles apart from cycle @p start: the network drains once it ends. */
orion::TrafficConfig
finiteTrace(unsigned nodes, unsigned packets, Cycle start)
{
    auto trace =
        std::make_shared<std::vector<orion::net::TraceRecord>>();
    for (unsigned i = 0; i < packets; ++i) {
        const int src = static_cast<int>(i % nodes);
        const int dst = static_cast<int>((i * 7 + 3) % nodes);
        if (src != dst)
            trace->push_back({start + 2 * i, src, dst});
    }
    orion::TrafficConfig t;
    t.pattern = orion::net::TrafficPattern::Trace;
    t.trace = std::move(trace);
    return t;
}

/** Run @p sim to completion, drain what is left in flight, and expect
 * every packet of the network's pool to be released. */
void
expectEveryPacketReleased(orion::Simulation& sim)
{
    const orion::Report r = sim.run();
    ASSERT_TRUE(r.completed)
        << "stop: " << orion::stopReasonName(r.stopReason);
    sim.step(20000);
    EXPECT_EQ(sim.network().inFlight(), 0u);
    const PacketPool& pool = sim.network().shared().packetPool;
    EXPECT_GT(pool.allocatedCount(), 0u);
    EXPECT_EQ(pool.liveCount(), 0u)
        << "a packet reference outlived its packet (NACK, retry "
           "queue, channel or buffer slot)";
}

TEST(PacketPool, FinishedBerRunReleasesEveryPacket)
{
    orion::SimConfig s;
    s.warmupCycles = 200;
    s.samplePackets = 600;
    s.maxCycles = 100000;
    s.fault.linkBitErrorRate = 5e-5;
    orion::Simulation sim(orion::NetworkConfig::vc16(),
                          finiteTrace(16, 640, 200), s);
    expectEveryPacketReleased(sim);
    EXPECT_GT(sim.faultInjector()->packetsRetransmitted(), 0u)
        << "no packet was killed; the test lost its teeth";
}

TEST(PacketPool, FinishedDeadlockRecoveryRunReleasesEveryPacket)
{
    // A worm that loops twice around a 4-node ring with one VC and no
    // avoidance wedges the ring; the detector poisons it (NACK with
    // retry limit 0) and the finite background trace completes.
    orion::NetworkConfig ring = orion::NetworkConfig::vc16();
    ring.net.dims = {4};
    ring.net.vcs = 1;
    ring.net.bufferDepth = 4;
    ring.net.deadlock = orion::router::DeadlockMode::None;
    orion::SimConfig s;
    s.warmupCycles = 100;
    s.samplePackets = 50;
    s.maxCycles = 100000;
    s.watchdogCycles = 5000;
    s.deadlockDetect.enabled = true;
    s.deadlockDetect.probeCycles = 16;
    s.deadlockDetect.thresholdCycles = 256;
    s.fault.retryLimit = 0;
    orion::Simulation sim(ring, finiteTrace(4, 60, 150), s);

    PacketRef wedge = sim.network().shared().packetPool.acquire();
    PacketInfo& w = wedge.edit();
    w.id = 9999999;
    w.src = 0;
    w.dst = 0;
    w.createdAt = 0;
    w.length = 40;
    w.sample = false;
    w.attempt = 0;
    w.route.clear();
    for (int h = 0; h < 8; ++h)
        w.route.push_back({.port = 0, .vcClass = 0, .newRing = h == 0});
    w.route.push_back({.port = 2, .vcClass = 0, .newRing = false});
    sim.network().endpoint(0).debugInjectPacket(std::move(wedge));

    expectEveryPacketReleased(sim);
    ASSERT_NE(sim.deadlockDetector(), nullptr);
    EXPECT_GE(sim.deadlockDetector()->recoveries(), 1u);
}

// --- bit-identity of the optimized kernel ------------------------------

/**
 * The hardest end-to-end path: bit errors + a link outage + source
 * rerouting + runtime deadlock detection, audited every 64 cycles at
 * the paranoid level. Two independent runs of the same configuration must
 * agree on every report field bit-for-bit — the arena/pool, batched
 * dispatch, SoA and quiescent-skip optimizations are pure
 * restructurings and may not perturb schedules or RNG streams.
 */
TEST(KernelBitIdentity, FaultRerouteDeadlockRunIsDeterministic)
{
    using orion::NetworkConfig;
    using orion::Report;
    using orion::SimConfig;
    using orion::Simulation;
    using orion::TrafficConfig;
    namespace core = orion::core;

    const core::CheckLevel saved = core::checkLevel();
    core::setCheckLevel(core::CheckLevel::Paranoid);

    NetworkConfig net = NetworkConfig::vc16();
    TrafficConfig traffic;
    traffic.injectionRate = 0.05;
    SimConfig s;
    s.warmupCycles = 500;
    s.samplePackets = 1500;
    s.maxCycles = 100000;
    s.auditCycles = 64;
    s.fault.linkBitErrorRate = 2e-6;
    s.fault.outages.push_back({.start = 1200, .end = 1500, .link = -1});
    s.rerouteOnOutage = true;
    s.deadlockDetect.enabled = true;

    Simulation a(net, traffic, s);
    Simulation b(net, traffic, s);
    const Report ra = a.run();
    const Report rb = b.run();
    core::setCheckLevel(saved);

    EXPECT_TRUE(ra.completed);
    EXPECT_GT(ra.flitsCorrupted + ra.reroutes, 0u)
        << "fault machinery never engaged; test lost its teeth";
    EXPECT_EQ(ra.sampleEjected, rb.sampleEjected);
    EXPECT_EQ(ra.faultLogHash, rb.faultLogHash);
    EXPECT_EQ(ra.reroutes, rb.reroutes);
    EXPECT_EQ(ra.packetsLost, rb.packetsLost);
    EXPECT_EQ(ra.packetsUnreachable, rb.packetsUnreachable);
    EXPECT_EQ(ra.deadlocksDetected, rb.deadlocksDetected);
    EXPECT_EQ(ra.deadlocksRecovered, rb.deadlocksRecovered);
    // Bit-identity, not approximate equality: the doubles must match
    // exactly.
    EXPECT_EQ(ra.avgLatencyCycles, rb.avgLatencyCycles);
    EXPECT_EQ(ra.networkPowerWatts, rb.networkPowerWatts);
}

} // namespace
