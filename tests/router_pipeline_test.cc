/**
 * @file
 * Tests for the virtual-channel router pipeline: 3-stage VA/SA/ST
 * timing, VC allocation semantics, per-packet output-VC holding,
 * wormhole non-interleaving, dateline class restriction, the bubble
 * rule's space requirements, and the per-port VC masks the allocation
 * stages scan (audited against the router state after every cycle).
 */

#include <gtest/gtest.h>

#include <vector>

#include "check_level_guard.hh"
#include "event_recorder.hh"
#include "router_test_util.hh"

namespace {

using namespace orion;
using namespace orion::router;
using namespace orion::test;
using sim::Event;
using sim::EventType;

RouterParams
vcParams(unsigned vcs, unsigned depth, DeadlockMode dl,
         unsigned pkt_len = 5)
{
    RouterParams p;
    p.ports = 5;
    p.vcs = vcs;
    p.bufferDepth = depth;
    p.flitBits = 64;
    p.packetLength = pkt_len;
    p.deadlock = dl;
    return p;
}

SingleRouterHarness
makeVcHarness(const RouterParams& p)
{
    return SingleRouterHarness(
        [&](sim::Simulator& s) {
            return std::make_unique<CrossbarRouter>(
                "vc", 0, p, s.bus(), /*va_enabled=*/true);
        },
        p.vcs, p.bufferDepth);
}

constexpr unsigned kIn = 1;
constexpr unsigned kOut = 2;

std::vector<RouteHop>
oneHopRoute(unsigned out = kOut)
{
    return {RouteHop{static_cast<std::uint8_t>(out), 0, false},
            RouteHop{4, 0, false}};
}

TEST(VcRouter, ThreeStagePipelineTiming)
{
    const RouterParams p = vcParams(2, 8, DeadlockMode::None, 1);
    SingleRouterHarness h = makeVcHarness(p);

    std::vector<Event> events;
    recordEvents(h.sim.bus(),
                 {EventType::BufferWrite, EventType::VcAllocation,
                  EventType::Arbitration, EventType::CrossbarTraversal},
                 events);

    sim::Rng rng(1);
    auto flits = makePacket(1, 0, 1, 1, p.flitBits, oneHopRoute(), rng);
    h.inject(kIn, std::move(flits[0]));
    h.sim.run(6);

    // BW at 1, VA at 2, SA at 3, ST at 4: the paper's 3-stage
    // virtual-channel pipeline (VA, SA, ST) after the buffer write.
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].type, EventType::BufferWrite);
    EXPECT_EQ(events[0].cycle, 1u);
    EXPECT_EQ(events[1].type, EventType::VcAllocation);
    EXPECT_EQ(events[1].cycle, 2u);
    EXPECT_EQ(events[2].type, EventType::Arbitration);
    EXPECT_EQ(events[2].cycle, 3u);
    EXPECT_EQ(events[3].type, EventType::CrossbarTraversal);
    EXPECT_EQ(events[3].cycle, 4u);
}

TEST(VcRouter, PacketFlitsStayOnOneOutputVc)
{
    const RouterParams p = vcParams(4, 8, DeadlockMode::None);
    SingleRouterHarness h = makeVcHarness(p);

    sim::Rng rng(2);
    auto flits = makePacket(1, 0, 1, 5, p.flitBits, oneHopRoute(), rng);
    std::vector<Flit> out;
    std::size_t next = 0;
    for (int c = 0; c < 30 && out.size() < 5; ++c) {
        if (next < flits.size()) {
            h.inject(kIn, flits[next]);
            ++next;
        }
        h.sim.run(1);
        h.readCreditReturn(kIn);
        if (auto f = h.readOutput(kOut))
            out.push_back(*f);
    }
    ASSERT_EQ(out.size(), 5u);
    for (unsigned s = 0; s < 5; ++s) {
        EXPECT_EQ(out[s].seq, s);           // in order
        EXPECT_EQ(out[s].vc, out[0].vc);    // same downstream VC
    }
    EXPECT_TRUE(out[0].head);
    EXPECT_TRUE(out[4].tail);
}

TEST(VcRouter, OutputVcReleasedAfterTail)
{
    const RouterParams p = vcParams(1, 8, DeadlockMode::None, 2);
    SingleRouterHarness h = makeVcHarness(p);
    auto& router = dynamic_cast<CrossbarRouter&>(h.router());

    sim::Rng rng(3);
    auto flits = makePacket(1, 0, 1, 2, p.flitBits, oneHopRoute(), rng);
    h.inject(kIn, flits[0]);
    h.sim.run(1);
    h.inject(kIn, flits[1]);

    bool was_busy = false;
    for (int c = 0; c < 12; ++c) {
        h.sim.run(1);
        h.readCreditReturn(kIn);
        h.readOutput(kOut);
        was_busy = was_busy || router.outVcBusy(kOut, 0);
    }
    EXPECT_TRUE(was_busy);
    EXPECT_FALSE(router.outVcBusy(kOut, 0)); // released by the tail
}

TEST(VcRouter, TwoPacketsShareOutputPortViaDifferentVcs)
{
    // Two packets from different inputs to the same output: with 2
    // VCs both get allocated and their flits interleave on the link,
    // each on its own VC.
    const RouterParams p = vcParams(2, 8, DeadlockMode::None);
    SingleRouterHarness h = makeVcHarness(p);

    sim::Rng rng(4);
    auto pkt_a = makePacket(1, 0, 1, 5, p.flitBits, oneHopRoute(), rng);
    auto pkt_b = makePacket(2, 0, 1, 5, p.flitBits, oneHopRoute(), rng);

    std::vector<Flit> out;
    std::size_t next = 0;
    for (int c = 0; c < 40 && out.size() < 10; ++c) {
        if (next < 5) {
            h.inject(1, pkt_a[next]);
            h.inject(3, pkt_b[next]);
            ++next;
        }
        h.sim.run(1);
        h.readCreditReturn(1);
        h.readCreditReturn(3);
        if (auto f = h.readOutput(kOut))
            out.push_back(*f);
    }
    ASSERT_EQ(out.size(), 10u);

    // Group by assigned VC: each VC must carry one whole packet in
    // order.
    for (unsigned vc = 0; vc < 2; ++vc) {
        unsigned expect_seq = 0;
        std::uint64_t pkt_id = 0;
        bool first = true;
        for (const auto& f : out) {
            if (f.vc != vc)
                continue;
            if (first) {
                pkt_id = f.packet->id;
                first = false;
            }
            EXPECT_EQ(f.packet->id, pkt_id);
            EXPECT_EQ(f.seq, expect_seq++);
        }
        EXPECT_EQ(expect_seq, 5u);
    }
}

TEST(Wormhole, PacketsNeverInterleaveOnOutput)
{
    // Wormhole (1 VC): a packet holds the output port head-to-tail.
    RouterParams p = vcParams(1, 8, DeadlockMode::None);
    SingleRouterHarness h(
        [&](sim::Simulator& s) {
            return std::make_unique<CrossbarRouter>("wh", 0, p, s.bus(),
                                                    /*va_enabled=*/false);
        },
        1, 8);

    sim::Rng rng(5);
    auto pkt_a = makePacket(1, 0, 1, 5, p.flitBits, oneHopRoute(), rng);
    auto pkt_b = makePacket(2, 0, 1, 5, p.flitBits, oneHopRoute(), rng);

    std::vector<Flit> out;
    std::size_t next = 0;
    for (int c = 0; c < 40 && out.size() < 10; ++c) {
        if (next < 5) {
            h.inject(1, pkt_a[next]);
            h.inject(3, pkt_b[next]);
            ++next;
        }
        h.sim.run(1);
        h.readCreditReturn(1);
        h.readCreditReturn(3);
        if (auto f = h.readOutput(kOut)) {
            out.push_back(*f);
            h.returnCredit(kOut, Credit{0}); // downstream consumes
        }
    }
    ASSERT_EQ(out.size(), 10u);
    // First five flits all belong to one packet, next five to the
    // other.
    const std::uint64_t first_id = out[0].packet->id;
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(out[static_cast<unsigned>(i)].packet->id, first_id);
    const std::uint64_t second_id = out[5].packet->id;
    EXPECT_NE(second_id, first_id);
    for (int i = 5; i < 10; ++i)
        EXPECT_EQ(out[static_cast<unsigned>(i)].packet->id, second_id);
}

TEST(VcRouter, DatelineRestrictsVcClass)
{
    // With dateline mode and 4 VCs, class-1 packets may only use VCs
    // {2, 3} downstream.
    const RouterParams p = vcParams(4, 8, DeadlockMode::Dateline, 1);
    SingleRouterHarness h = makeVcHarness(p);

    sim::Rng rng(6);
    std::vector<RouteHop> route{RouteHop{kOut, 1, true},
                                RouteHop{4, 0, false}};
    auto flits = makePacket(1, 0, 1, 1, p.flitBits, route, rng);
    h.inject(kIn, std::move(flits[0]));

    std::optional<Flit> got;
    for (int c = 0; c < 10 && !got; ++c) {
        h.sim.run(1);
        h.readCreditReturn(kIn);
        got = h.readOutput(kOut);
    }
    ASSERT_TRUE(got.has_value());
    EXPECT_GE(got->vc, 2); // upper half = class 1
}

TEST(Wormhole, BubbleRuleHoldsHeadWithoutSpace)
{
    // Bubble mode, packet length 2, downstream depth 8: entering a new
    // ring requires 2 x 2 = 4 free slots. Pre-consume 5 downstream
    // credits so only 3 remain: the head must stall; after returning
    // credits it proceeds.
    RouterParams p = vcParams(1, 8, DeadlockMode::Bubble, 2);
    SingleRouterHarness h(
        [&](sim::Simulator& s) {
            return std::make_unique<CrossbarRouter>("wh", 0, p, s.bus(),
                                                    /*va_enabled=*/false);
        },
        1, 8);

    // Occupy downstream: send a long packet through first. Simpler:
    // directly consume credits by injecting an earlier 5-flit packet
    // is overkill — instead reach in via outputCredits after
    // arbitration. Here we emulate scarcity with a second packet that
    // fills downstream and never drains (no credits returned).
    sim::Rng rng(7);
    std::vector<RouteHop> filler_route{RouteHop{kOut, 0, false},
                                       RouteHop{4, 0, false}};
    // Filler: 5 single-flit packets (continuing in ring, need >= 2
    // slots each) occupy 5 of 8 downstream slots.
    for (int i = 0; i < 5; ++i) {
        auto f = makePacket(static_cast<std::uint64_t>(10 + i), 0, 1, 1,
                            p.flitBits, filler_route, rng);
        h.inject(1, f[0]);
        h.sim.run(2);
        h.readCreditReturn(1);
        h.readOutput(kOut); // drain the link but return no credits
    }
    // Let all five fillers drain through the pipeline.
    for (int c = 0; c < 10; ++c) {
        h.sim.run(1);
        h.readCreditReturn(1);
        h.readOutput(kOut);
    }
    EXPECT_EQ(h.router().outputCredits(kOut, 0), 3u);

    // Now a ring-entering head (newRing = true) needs 4 free: stalls.
    std::vector<RouteHop> entering{RouteHop{kOut, 0, true},
                                   RouteHop{4, 0, false}};
    auto pkt = makePacket(1, 0, 1, 2, p.flitBits, entering, rng);
    h.inject(1, pkt[0]);
    h.sim.run(1);
    h.inject(1, pkt[1]);
    for (int c = 0; c < 10; ++c) {
        h.sim.run(1);
        h.readCreditReturn(1);
        EXPECT_FALSE(h.readOutput(kOut).has_value()) << "head must stall";
    }

    // Return one credit: 4 free now, head may proceed.
    h.returnCredit(kOut, Credit{0});
    int forwarded = 0;
    for (int c = 0; c < 12; ++c) {
        h.sim.run(1);
        h.readCreditReturn(1);
        if (h.readOutput(kOut))
            ++forwarded;
    }
    EXPECT_EQ(forwarded, 2); // head + tail
}

TEST(VcRouter, HeadOfLineBlockingWithSingleVc)
{
    // Classic HoL: packet A (blocked on credits) trapped behind it is
    // packet B to a free output — with 1 VC, B cannot pass A.
    RouterParams p = vcParams(1, 16, DeadlockMode::None, 2);
    SingleRouterHarness h = makeVcHarness(p);

    sim::Rng rng(8);
    const auto step = [&] {
        h.sim.run(1);
        h.readCreditReturn(1);
        h.readOutput(kOut);
    };

    // Fill output kOut's downstream buffer (depth 16) with 8 2-flit
    // packets, so the 9th stalls.
    for (int i = 0; i < 8; ++i) {
        auto f =
            makePacket(static_cast<std::uint64_t>(i), 0, 1, 2,
                       p.flitBits, oneHopRoute(kOut), rng);
        h.inject(1, f[0]);
        step();
        h.inject(1, f[1]);
        step();
        step();
    }
    // Drain anything in flight, never returning downstream credits.
    for (int c = 0; c < 20; ++c)
        step();

    // Packet A to kOut (stalls on credits), then packet B to output 0.
    auto a = makePacket(100, 0, 1, 2, p.flitBits, oneHopRoute(kOut),
                        rng);
    auto b = makePacket(101, 0, 1, 2, p.flitBits, oneHopRoute(0), rng);
    h.inject(1, a[0]);
    step();
    h.inject(1, a[1]);
    step();
    h.inject(1, b[0]);
    step();
    h.inject(1, b[1]);

    for (int c = 0; c < 15; ++c) {
        step();
        EXPECT_FALSE(h.readOutput(0).has_value())
            << "B escaped past a blocked head with only 1 VC";
    }
}

/** Fault hooks that corrupt nothing and count what the router kills. */
class CountingHooks : public FaultHooks
{
  public:
    void onLinkTraversal(unsigned, Flit&, sim::Cycle) override {}
    bool portStalled(int, unsigned, sim::Cycle) override { return false; }
    void
    onPacketKilled(const PacketRef&, sim::Cycle) override
    {
        ++killed;
    }
    void
    onFlitDiscarded(const Flit&, sim::Cycle) override
    {
        ++discarded;
    }

    unsigned killed = 0;
    unsigned discarded = 0;
};

TEST(VcRouter, VcMasksMatchStateEveryCycle)
{
    const CheckLevelGuard paranoid(core::CheckLevel::Paranoid);
    // One cycle, then the masks against the FIFOs, phases and held
    // output VCs they summarize; upstream credits are drained.
    const auto step = [](SingleRouterHarness& h, CrossbarRouter& r) {
        h.sim.run(1);
        r.auditVcMasks();
        for (unsigned port = 0; port < r.params().ports; ++port)
            h.readCreditReturn(port);
    };

    {
        SCOPED_TRACE("one worm, head to tail, on VC 63 of 64");
        const RouterParams p = vcParams(64, 8, DeadlockMode::Dateline);
        SingleRouterHarness h = makeVcHarness(p);
        auto& r = dynamic_cast<CrossbarRouter&>(h.router());
        sim::Rng rng(11);
        auto flits = makePacket(1, 0, 1, 5, p.flitBits,
                                {RouteHop{kOut, 1, false},
                                 RouteHop{4, 0, false}},
                                rng);
        unsigned out = 0;
        bool held = false;
        for (unsigned c = 0; c < 30; ++c) {
            if (c < flits.size()) {
                flits[c].vc = 63;
                h.inject(kIn, flits[c]);
            }
            ASSERT_NO_THROW(step(h, r)) << "cycle " << c;
            if (auto f = h.readOutput(kOut)) {
                EXPECT_GE(f->vc, 32); // class 1: the upper half
                ++out;
            }
            for (unsigned v = 32; v < 64; ++v)
                held = held || r.outVcBusy(kOut, v);
        }
        EXPECT_EQ(out, 5u);
        EXPECT_TRUE(held);
        for (unsigned v = 0; v < 64; ++v)
            EXPECT_FALSE(r.outVcBusy(kOut, v)) << "vc " << v;
    }

    {
        SCOPED_TRACE("VA conflict: two heads, one output VC");
        const RouterParams p = vcParams(1, 8, DeadlockMode::None);
        SingleRouterHarness h = makeVcHarness(p);
        auto& r = dynamic_cast<CrossbarRouter&>(h.router());
        sim::Rng rng(12);
        auto a = makePacket(1, 0, 1, 5, p.flitBits, oneHopRoute(), rng);
        auto b = makePacket(2, 0, 1, 5, p.flitBits, oneHopRoute(), rng);
        unsigned out = 0;
        bool saw_waiting = false;
        for (unsigned c = 0; c < 40; ++c) {
            if (c < a.size()) {
                h.inject(1, a[c]);
                h.inject(3, b[c]);
            }
            ASSERT_NO_THROW(step(h, r)) << "cycle " << c;
            if (h.readOutput(kOut)) {
                ++out;
                h.returnCredit(kOut, Credit{0});
            }
            for (const unsigned in : {1u, 3u}) {
                Router::VcWaitState ws;
                r.vcWaitState(in, 0, ws);
                saw_waiting = saw_waiting || ws.phase == 1;
            }
        }
        EXPECT_EQ(out, 10u);
        EXPECT_TRUE(saw_waiting); // the loser waited for the VC
        EXPECT_FALSE(r.outVcBusy(kOut, 0));
    }

    {
        SCOPED_TRACE("poisonBlockedWorm on an Active, credit-starved head");
        // Downstream depth 4 = one 4-flit packet: A takes every
        // credit, so B holds the output VC with its head stuck.
        const RouterParams p = vcParams(1, 8, DeadlockMode::None, 4);
        SingleRouterHarness h(
            [&](sim::Simulator& s) {
                return std::make_unique<CrossbarRouter>(
                    "vc", 0, p, s.bus(), /*va_enabled=*/true);
            },
            1, 4);
        auto& r = dynamic_cast<CrossbarRouter&>(h.router());
        CountingHooks hooks;
        r.setFaultHooks(&hooks);
        sim::Rng rng(13);
        auto a = makePacket(1, 0, 1, 4, p.flitBits, oneHopRoute(), rng);
        auto b = makePacket(2, 0, 1, 4, p.flitBits, oneHopRoute(), rng);
        for (auto* pkt : {&a, &b}) {
            for (Flit& f : *pkt)
                f.linkCrc = payloadChecksum(f.payload);
        }
        unsigned out = 0;
        for (unsigned c = 0; c < 20; ++c) {
            if (c < a.size())
                h.inject(1, a[c]);
            if (c >= 10 && c < 12)
                h.inject(3, b[c - 10]); // half of B's worm
            ASSERT_NO_THROW(step(h, r)) << "cycle " << c;
            if (h.readOutput(kOut))
                ++out;
        }
        EXPECT_EQ(out, 4u);
        Router::VcWaitState ws;
        r.vcWaitState(3, 0, ws);
        ASSERT_EQ(ws.phase, 2); // Active: B holds the output VC
        ASSERT_TRUE(ws.frontHead);
        ASSERT_TRUE(r.poisonBlockedWorm(3, 0, h.sim.now()));
        ASSERT_NO_THROW(r.auditVcMasks());
        EXPECT_FALSE(r.outVcBusy(kOut, 0));
        // The rest of B arrives and is dropped up to its tail.
        for (unsigned c = 0; c < 8; ++c) {
            if (c < 2)
                h.inject(3, b[c + 2]);
            ASSERT_NO_THROW(step(h, r)) << "cycle " << c;
            EXPECT_FALSE(h.readOutput(kOut).has_value());
        }
        EXPECT_EQ(hooks.killed, 1u);
        EXPECT_EQ(hooks.discarded, 4u);
        EXPECT_TRUE(r.inputFifo(3, 0).empty());
        EXPECT_FALSE(r.outVcBusy(kOut, 0));
    }
}

} // namespace
