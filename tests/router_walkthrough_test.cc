/**
 * @file
 * The paper's Section 3.3 walkthrough as an executable test: a head
 * flit enters a simple 5-port wormhole router (4-flit buffers, 32-bit
 * flits, 5x5 crossbar, 4:1 arbiters), and
 *
 *   E_flit = E_wrt + E_arb + E_read + E_xb + E_link
 *
 * with each term triggered by exactly the event sequence the paper
 * describes: buffer write -> arbitration -> buffer read -> crossbar
 * traversal -> link traversal.
 */

#include <gtest/gtest.h>

#include <vector>

#include "event_recorder.hh"
#include "power/arbiter_model.hh"
#include "power/buffer_model.hh"
#include "power/crossbar_model.hh"
#include "power/link_model.hh"
#include "router_test_util.hh"
#include "tech/tech_node.hh"

namespace {

using namespace orion;
using namespace orion::router;
using namespace orion::test;
using sim::Event;
using sim::EventType;

RouterParams
walkthroughParams()
{
    RouterParams p;
    p.ports = 5;
    p.vcs = 1;
    p.bufferDepth = 4;
    p.flitBits = 32;
    p.packetLength = 1;
    p.deadlock = DeadlockMode::None;
    return p;
}

SingleRouterHarness
makeHarness()
{
    const RouterParams p = walkthroughParams();
    return SingleRouterHarness(
        [&](sim::Simulator& s) {
            return std::make_unique<CrossbarRouter>(
                "wh", 0, p, s.bus(), /*va_enabled=*/false);
        },
        1, 4);
}

constexpr unsigned kWestIn = 1;   // -x input port (arbitrary choice)
constexpr unsigned kNorthOut = 2; // +y output, as in the paper

TEST(Walkthrough, HeadFlitEnergyIdentity)
{
    const RouterParams p = walkthroughParams();
    SingleRouterHarness h = makeHarness();

    std::vector<Event> events;
    recordEvents(h.sim.bus(),
                 {EventType::BufferWrite, EventType::Arbitration,
                  EventType::BufferRead, EventType::CrossbarTraversal,
                  EventType::LinkTraversal},
                 events);

    // A single head flit routed to the north output.
    sim::Rng rng(42);
    auto flits = makePacket(
        1, 0, 1, 1, p.flitBits,
        {RouteHop{kNorthOut, 0, false}, RouteHop{4, 0, false}}, rng);
    h.inject(kWestIn, std::move(flits[0]));

    h.sim.run(5);

    // Event order per the paper's walkthrough: write, arbitration,
    // read, crossbar traversal, link traversal.
    ASSERT_EQ(events.size(), 5u);
    EXPECT_EQ(events[0].type, EventType::BufferWrite);
    EXPECT_EQ(events[1].type, EventType::Arbitration);
    EXPECT_EQ(events[2].type, EventType::BufferRead);
    EXPECT_EQ(events[3].type, EventType::CrossbarTraversal);
    EXPECT_EQ(events[4].type, EventType::LinkTraversal);

    // Stage timing: BW at cycle 1 (1-cycle input channel), SA at 2,
    // ST at 3 — the paper's 2-stage wormhole pipeline.
    EXPECT_EQ(events[0].cycle, 1u);
    EXPECT_EQ(events[1].cycle, 2u);
    EXPECT_EQ(events[2].cycle, 2u);
    EXPECT_EQ(events[3].cycle, 3u);
    EXPECT_EQ(events[4].cycle, 3u);

    // Energy identity: E_flit = E_wrt + E_arb + E_read + E_xb + E_link,
    // each term evaluated by the Table 2-4 models on the monitored
    // switching activity.
    const tech::TechNode tech = tech::TechNode::onChip100nm();
    const power::BufferModel buf(tech, {4, 32, 1, 1});
    const power::CrossbarModel xbar(
        tech, {5, 5, 32, power::CrossbarKind::Matrix, 0.0});
    const power::ArbiterModel arb(
        tech, {4, power::ArbiterKind::Matrix, xbar.controlCap()});
    const power::OnChipLinkModel link(tech, 3000.0, 32);

    const double e_wrt =
        buf.writeEnergy(events[0].deltaA, events[0].deltaB);
    const double e_arb =
        arb.arbitrationEnergy(events[1].deltaA, events[1].deltaB);
    const double e_read = buf.readEnergy();
    const double e_xb = xbar.traversalEnergy(events[3].deltaA);
    const double e_link = link.traversalEnergy(events[4].deltaA);
    const double e_flit = e_wrt + e_arb + e_read + e_xb + e_link;

    EXPECT_GT(e_wrt, 0.0);
    EXPECT_GT(e_arb, 0.0);
    EXPECT_GT(e_read, 0.0);
    EXPECT_GT(e_xb, 0.0);
    EXPECT_GT(e_link, 0.0);
    EXPECT_DOUBLE_EQ(e_flit,
                     e_wrt + e_arb + e_read + e_xb + e_link);
}

TEST(Walkthrough, FlitLeavesOnRequestedOutput)
{
    const RouterParams p = walkthroughParams();
    SingleRouterHarness h = makeHarness();

    sim::Rng rng(7);
    auto flits = makePacket(
        1, 0, 1, 1, p.flitBits,
        {RouteHop{kNorthOut, 0, false}, RouteHop{4, 0, false}}, rng);
    const auto payload = flits[0].payload;
    h.inject(kWestIn, std::move(flits[0]));

    std::optional<Flit> got;
    for (int c = 0; c < 8 && !got; ++c) {
        h.sim.run(1);
        got = h.readOutput(kNorthOut);
        // Nothing may leak out of other outputs.
        for (unsigned o = 0; o < p.ports; ++o) {
            if (o != kNorthOut) {
                EXPECT_FALSE(h.readOutput(o).has_value());
            }
        }
    }
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->head);
    EXPECT_TRUE(got->tail);
    EXPECT_EQ(got->hop, 1u); // route index advanced for the next router
    EXPECT_EQ(got->payload, payload);
}

TEST(Walkthrough, CreditReturnedWhenFlitLeavesBuffer)
{
    const RouterParams p = walkthroughParams();
    SingleRouterHarness h = makeHarness();

    sim::Rng rng(9);
    auto flits = makePacket(
        1, 0, 1, 1, p.flitBits,
        {RouteHop{kNorthOut, 0, false}, RouteHop{4, 0, false}}, rng);
    h.inject(kWestIn, std::move(flits[0]));

    bool credit_seen = false;
    for (int c = 0; c < 8 && !credit_seen; ++c) {
        h.sim.run(1);
        if (const auto credit = h.readCreditReturn(kWestIn)) {
            EXPECT_EQ(credit->vc, 0);
            credit_seen = true;
        }
    }
    EXPECT_TRUE(credit_seen);
}

TEST(Walkthrough, DownstreamCreditsAreConsumed)
{
    const RouterParams p = walkthroughParams();
    SingleRouterHarness h = makeHarness();

    // Downstream buffer holds 4 flits; send 4 single-flit packets and
    // verify the 5th stalls until a credit is returned.
    sim::Rng rng(11);
    int out_count = 0;
    for (int i = 0; i < 5; ++i) {
        auto flits = makePacket(
            static_cast<std::uint64_t>(i), 0, 1, 1, p.flitBits,
            {RouteHop{kNorthOut, 0, false}, RouteHop{4, 0, false}},
            rng);
        h.inject(kWestIn, std::move(flits[0]));
        h.sim.run(1);
        h.readCreditReturn(kWestIn); // drain
        if (h.readOutput(kNorthOut))
            ++out_count;
    }
    for (int c = 0; c < 12; ++c) {
        h.sim.run(1);
        h.readCreditReturn(kWestIn); // drain
        if (h.readOutput(kNorthOut))
            ++out_count;
    }
    EXPECT_EQ(out_count, 4); // 5th packet blocked on credits

    // Returning one credit releases the 5th.
    h.returnCredit(kNorthOut, Credit{0});
    bool fifth = false;
    for (int c = 0; c < 6 && !fifth; ++c) {
        h.sim.run(1);
        fifth = h.readOutput(kNorthOut).has_value();
    }
    EXPECT_TRUE(fifth);
}

} // namespace
