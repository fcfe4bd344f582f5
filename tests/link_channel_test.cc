/**
 * @file
 * Edge-case tests for links and registered channels: traversal-event
 * gating, per-link activity history, credit links, channel overrun
 * detection, and the two-slot register (staged and consumed slots
 * stay intact, audit views track the current slot).
 */

#include <gtest/gtest.h>

#include <vector>

#include "event_recorder.hh"
#include "router/link.hh"
#include "sim/module.hh"

namespace {

using namespace orion;
using namespace orion::router;
using sim::Event;
using sim::EventBus;
using sim::EventType;

Flit
makeFlit(unsigned width, std::uint64_t payload)
{
    Flit f;
    f.packet = PacketRef::make();
    f.payload = power::BitVec(width, payload);
    return f;
}

TEST(FlitLink, EmitsTraversalWithActivityDelta)
{
    EventBus bus;
    std::vector<Event> events;
    test::recordEvents(bus, {EventType::LinkTraversal}, events);

    FlitLink link(3, 2, 32, /*emits_traversal=*/true);
    link.send(makeFlit(32, 0xff), bus, 5);
    link.advance();
    link.read();
    link.send(makeFlit(32, 0xff), bus, 6); // same value: 0 toggles
    link.advance();
    link.read();
    link.send(makeFlit(32, 0x0f), bus, 7); // 4 toggles

    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].node, 3);
    EXPECT_EQ(events[0].component, 2);
    EXPECT_EQ(events[0].deltaA, 8u);
    EXPECT_EQ(events[1].deltaA, 0u);
    EXPECT_EQ(events[2].deltaA, 4u);
}

TEST(FlitLink, LocalWiringEmitsNothing)
{
    EventBus bus;
    std::vector<Event> traversals;
    test::recordEvents(bus, {EventType::LinkTraversal}, traversals);

    FlitLink link(0, 4, 32, /*emits_traversal=*/false);
    link.send(makeFlit(32, 0xff), bus, 0);
    EXPECT_EQ(traversals.size(), 0u);
    EXPECT_FALSE(link.emitsTraversal());
    link.advance();
    EXPECT_TRUE(link.valid()); // the flit still travels
}

TEST(CreditLink, EmitsCreditTransfer)
{
    EventBus bus;
    std::vector<Event> events;
    test::recordEvents(bus, {EventType::CreditTransfer}, events);

    CreditLink link(7, 1);
    link.send(Credit{3}, bus, 9);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].node, 7);
    EXPECT_EQ(events[0].cycle, 9u);
    link.advance();
    EXPECT_EQ(link.read().vc, 3);
}

TEST(ChannelDeath, OverrunAsserts)
{
    sim::Channel<int> ch;
    ch.write(1);
    ch.advance(); // 1 is current, unread
    ch.write(2);  // staged
    EXPECT_DEATH(ch.advance(), "channel overrun");
}

TEST(ChannelDeath, DoubleWriteAsserts)
{
    sim::Channel<int> ch;
    ch.write(1);
    EXPECT_DEATH(ch.write(2), "written twice");
}

TEST(ChannelDeath, OverrunAssertsWithEitherSlotCurrent)
{
    // The register flips between its two slots; the checks must fire
    // whichever slot is current.
    for (int flips = 0; flips < 2; ++flips) {
        sim::Channel<int> ch;
        for (int i = 0; i < flips; ++i) {
            ch.write(int{i});
            ch.advance();
            (void)ch.read();
        }
        ch.write(1);
        ch.advance();
        ch.write(2);
        EXPECT_DEATH(ch.advance(), "channel overrun");
        EXPECT_DEATH(ch.write(3), "written twice");
    }
}

TEST(Channel, StagedMessageArrivesIntactBehindAnUnreadOne)
{
    // Heap-backed messages show that staging the next message moves
    // nothing out of the current slot, and reading the current one
    // leaves the staged slot alone.
    sim::Channel<std::vector<int>> ch;
    ch.write(std::vector<int>(100, 1));
    ch.advance();
    ch.write(std::vector<int>(100, 2)); // staged while 1s are unread
    ASSERT_TRUE(ch.valid());
    EXPECT_EQ(ch.peek(), std::vector<int>(100, 1));
    EXPECT_EQ(ch.read(), std::vector<int>(100, 1));
    ch.advance();
    ASSERT_TRUE(ch.valid());
    EXPECT_EQ(ch.read(), std::vector<int>(100, 2));
}

TEST(Channel, ConsumedSlotStaysIntactUntilTheNextAdvance)
{
    sim::Channel<std::vector<int>> ch;
    ch.write(std::vector<int>(8, 5));
    ch.advance();
    std::vector<int>& slot = ch.consume();
    EXPECT_FALSE(ch.valid());
    ch.write(std::vector<int>(8, 6)); // lands in the other slot
    EXPECT_EQ(slot, std::vector<int>(8, 5));
    slot.push_back(7); // screened in place
    EXPECT_EQ(slot.size(), 9u);
    ch.advance();
    EXPECT_EQ(ch.read(), std::vector<int>(8, 6));
}

TEST(Channel, AuditViewsNameTheRightSlotAcrossAdvances)
{
    sim::Channel<int> ch;
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(ch.auditStaged(), nullptr);
        ch.write(int{i});
        ASSERT_NE(ch.auditStaged(), nullptr);
        EXPECT_EQ(*ch.auditStaged(), i);
        if (i > 0) {
            ASSERT_NE(ch.auditCurrent(), nullptr);
            EXPECT_EQ(*ch.auditCurrent(), i - 1);
            EXPECT_EQ(ch.read(), i - 1);
        }
        EXPECT_EQ(ch.auditCurrent(), nullptr);
        ch.advance();
        // Idle advances every third cycle must not flip the slots.
        if (i % 3 == 0)
            ch.advance();
        EXPECT_EQ(ch.auditStaged(), nullptr);
        ASSERT_NE(ch.auditCurrent(), nullptr);
        EXPECT_EQ(*ch.auditCurrent(), i);
    }
}

TEST(Channel, UnreadMessageLatches)
{
    sim::Channel<int> ch;
    ch.write(5);
    ch.advance();
    ch.advance(); // nothing staged: the unread 5 persists
    ch.advance();
    ASSERT_TRUE(ch.valid());
    EXPECT_EQ(ch.read(), 5);
}

TEST(Flit, RouteHopAccessors)
{
    PacketInfo info;
    info.route = {RouteHop{2, 0, true}, RouteHop{0, 1, false},
                  RouteHop{4, 0, false}};
    Flit f;
    f.packet = PacketRef::make(std::move(info));
    f.hop = 0;
    EXPECT_EQ(f.routeHop().port, 2);
    EXPECT_TRUE(f.routeHop().newRing);
    EXPECT_FALSE(f.atLastHop());
    f.hop = 2;
    EXPECT_EQ(f.routeHop().port, 4);
    EXPECT_TRUE(f.atLastHop());
}

} // namespace
