/**
 * @file
 * Tests for the central-buffered router: VCT admission, per-output
 * packet queues, read/write port bandwidth limits, freedom from
 * head-of-line blocking across outputs, and its power events.
 */

#include <gtest/gtest.h>

#include <vector>

#include "event_recorder.hh"
#include "router_test_util.hh"

namespace {

using namespace orion;
using namespace orion::router;
using namespace orion::test;
using sim::Event;
using sim::EventType;

RouterParams
cbBaseParams(unsigned pkt_len = 2)
{
    RouterParams p;
    p.ports = 5;
    p.vcs = 1;
    p.bufferDepth = 8; // input FIFO depth
    p.flitBits = 32;
    p.packetLength = pkt_len;
    p.deadlock = DeadlockMode::None;
    return p;
}

SingleRouterHarness
makeCbHarness(const RouterParams& p, const CentralBufferRouterParams& cb)
{
    return SingleRouterHarness(
        [&](sim::Simulator& s) {
            return std::make_unique<CentralBufferRouter>("cb", 0, p, cb,
                                                         s.bus());
        },
        1, p.bufferDepth);
}

std::vector<RouteHop>
oneHopRoute(unsigned out)
{
    return {RouteHop{static_cast<std::uint8_t>(out), 0, false},
            RouteHop{4, 0, false}};
}

TEST(CbRouter, ForwardsAPacket)
{
    const RouterParams p = cbBaseParams();
    SingleRouterHarness h =
        makeCbHarness(p, CentralBufferRouterParams{64, 2, 2, 2});

    sim::Rng rng(1);
    auto flits = makePacket(1, 0, 1, 2, p.flitBits, oneHopRoute(2), rng);
    h.inject(1, flits[0]);
    h.sim.run(1);
    h.inject(1, flits[1]);

    std::vector<Flit> out;
    for (int c = 0; c < 20 && out.size() < 2; ++c) {
        h.sim.run(1);
        h.readCreditReturn(1);
        if (auto f = h.readOutput(2))
            out.push_back(*f);
    }
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].head);
    EXPECT_TRUE(out[1].tail);
    EXPECT_EQ(out[0].hop, 1u);
}

TEST(CbRouter, EmitsCentralBufferEvents)
{
    const RouterParams p = cbBaseParams();
    SingleRouterHarness h =
        makeCbHarness(p, CentralBufferRouterParams{64, 2, 2, 2});

    std::vector<Event> events;
    recordEvents(h.sim.bus(),
                 {EventType::BufferWrite, EventType::BufferRead,
                  EventType::CentralBufferWrite,
                  EventType::CentralBufferRead, EventType::Arbitration},
                 events);

    sim::Rng rng(2);
    auto flits = makePacket(1, 0, 1, 2, p.flitBits, oneHopRoute(2), rng);
    h.inject(1, flits[0]);
    h.sim.run(1);
    h.inject(1, flits[1]);
    for (int c = 0; c < 15; ++c) {
        h.sim.run(1);
        h.readCreditReturn(1);
        h.readOutput(2);
    }

    const auto count = [&](EventType t) {
        int n = 0;
        for (const auto& e : events)
            if (e.type == t)
                ++n;
        return n;
    };
    // Each of the two flits: input FIFO write+read, central buffer
    // write+read; plus one write-port and one read-port arbitration
    // per flit.
    EXPECT_EQ(count(EventType::BufferWrite), 2);
    EXPECT_EQ(count(EventType::BufferRead), 2);
    EXPECT_EQ(count(EventType::CentralBufferWrite), 2);
    EXPECT_EQ(count(EventType::CentralBufferRead), 2);
    EXPECT_EQ(count(EventType::Arbitration), 4);
}

TEST(CbRouter, PipelineLatencyDelaysReadability)
{
    const RouterParams p = cbBaseParams(1);
    SingleRouterHarness fast = makeCbHarness(
        p, CentralBufferRouterParams{64, 2, 2, /*pipeline=*/1});
    SingleRouterHarness slow = makeCbHarness(
        p, CentralBufferRouterParams{64, 2, 2, /*pipeline=*/4});

    sim::Rng rng(3);
    const auto route = oneHopRoute(2);

    const auto latency = [&](SingleRouterHarness& h) {
        auto flits = makePacket(1, 0, 1, 1, p.flitBits, route, rng);
        h.inject(1, flits[0]);
        for (int c = 0; c < 30; ++c) {
            h.sim.run(1);
            h.readCreditReturn(1);
            if (h.readOutput(2))
                return c;
        }
        return -1;
    };
    const int fast_lat = latency(fast);
    const int slow_lat = latency(slow);
    ASSERT_GE(fast_lat, 0);
    ASSERT_GE(slow_lat, 0);
    EXPECT_EQ(slow_lat - fast_lat, 3);
}

TEST(CbRouter, NoHeadOfLineBlockingAcrossOutputs)
{
    // Packet A to output 2 is blocked (no downstream credits); packet
    // B behind it to output 0 still gets through — the CB decouples
    // outputs (the paper's core claim for CB routers).
    const RouterParams p = cbBaseParams(2);
    SingleRouterHarness h =
        makeCbHarness(p, CentralBufferRouterParams{64, 2, 2, 2});

    sim::Rng rng(4);
    // Exhaust output 2's downstream credits (depth 8 = 4 packets).
    for (int i = 0; i < 4; ++i) {
        auto f = makePacket(static_cast<std::uint64_t>(i), 0, 1, 2,
                            p.flitBits, oneHopRoute(2), rng);
        h.inject(1, f[0]);
        h.sim.run(1);
        h.readCreditReturn(1);
        h.readOutput(2);
        h.inject(1, f[1]);
        h.sim.run(1);
        h.readCreditReturn(1);
        h.readOutput(2);
    }
    for (int c = 0; c < 20; ++c) {
        h.sim.run(1);
        h.readCreditReturn(1);
        h.readOutput(2);
    }

    // A (to blocked output 2), then B (to free output 0), same input.
    auto a = makePacket(100, 0, 1, 2, p.flitBits, oneHopRoute(2), rng);
    auto b = makePacket(101, 0, 1, 2, p.flitBits, oneHopRoute(0), rng);
    h.inject(1, a[0]);
    h.sim.run(1);
    h.inject(1, a[1]);
    h.sim.run(1);
    h.readCreditReturn(1);
    h.inject(1, b[0]);
    h.sim.run(1);
    h.readCreditReturn(1);
    h.inject(1, b[1]);

    int b_flits = 0;
    for (int c = 0; c < 20; ++c) {
        h.sim.run(1);
        h.readCreditReturn(1);
        EXPECT_FALSE(h.readOutput(2).has_value());
        if (h.readOutput(0))
            ++b_flits;
    }
    EXPECT_EQ(b_flits, 2) << "CB router must not HoL-block across "
                             "outputs";
}

TEST(CbRouter, AdmissionWaitsForPoolSpace)
{
    // Tiny pool: capacity 2 flits = one 2-flit packet. A second packet
    // cannot be admitted until the first drains.
    const RouterParams p = cbBaseParams(2);
    SingleRouterHarness h =
        makeCbHarness(p, CentralBufferRouterParams{2, 2, 2, 1});
    auto& router = dynamic_cast<CentralBufferRouter&>(h.router());

    sim::Rng rng(5);
    const auto step = [&] {
        h.sim.run(1);
        h.readCreditReturn(1);
        h.readCreditReturn(3);
    };
    auto a = makePacket(1, 0, 1, 2, p.flitBits, oneHopRoute(2), rng);
    auto b = makePacket(2, 0, 1, 2, p.flitBits, oneHopRoute(0), rng);
    h.inject(1, a[0]);
    h.inject(3, b[0]);
    step();
    h.inject(1, a[1]);
    h.inject(3, b[1]);
    step();
    step();

    // Only one packet fits; pool must be exhausted.
    EXPECT_EQ(router.freeCentralSlots(), 0u);

    int out_flits = 0;
    for (int c = 0; c < 30 && out_flits < 4; ++c) {
        h.sim.run(1);
        h.readCreditReturn(1);
        h.readCreditReturn(3);
        if (h.readOutput(2))
            ++out_flits;
        if (h.readOutput(0))
            ++out_flits;
    }
    // Both packets eventually get through as space frees up.
    EXPECT_EQ(out_flits, 4);
    EXPECT_EQ(router.freeCentralSlots(), 2u);
}

TEST(CbRouter, WritePortBandwidthLimitsAdmissionRate)
{
    // One write port: two inputs with simultaneous traffic are
    // serialized into the pool at 1 flit/cycle.
    const RouterParams p = cbBaseParams(1);
    SingleRouterHarness one_port =
        makeCbHarness(p, CentralBufferRouterParams{64, 1, 2, 1});
    SingleRouterHarness two_port =
        makeCbHarness(p, CentralBufferRouterParams{64, 2, 2, 1});

    const auto throughput = [&](SingleRouterHarness& h) {
        sim::Rng rng(6);
        int received = 0;
        unsigned credits1 = p.bufferDepth;
        unsigned credits3 = p.bufferDepth;
        std::uint64_t id = 0;
        for (int c = 0; c < 40; ++c) {
            if (c < 40) {
                if (credits1 > 0) {
                    auto fa = makePacket(id++, 0, 1, 1, p.flitBits,
                                         oneHopRoute(2), rng);
                    h.inject(1, fa[0]);
                    --credits1;
                }
                if (credits3 > 0) {
                    auto fb = makePacket(id++, 0, 1, 1, p.flitBits,
                                         oneHopRoute(0), rng);
                    h.inject(3, fb[0]);
                    --credits3;
                }
            }
            h.sim.run(1);
            if (h.readCreditReturn(1))
                ++credits1;
            if (h.readCreditReturn(3))
                ++credits3;
            if (h.readOutput(2)) {
                ++received;
                h.returnCredit(2, Credit{0});
            }
            if (h.readOutput(0)) {
                ++received;
                h.returnCredit(0, Credit{0});
            }
        }
        return received;
    };
    const int one = throughput(one_port);
    const int two = throughput(two_port);
    EXPECT_GT(two, one + 10);
}

} // namespace
