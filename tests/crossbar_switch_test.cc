/**
 * @file
 * Tests for the behavioural crossbar switch: traversal events and
 * per-output last-value switching-activity tracking.
 */

#include <gtest/gtest.h>

#include <vector>

#include "event_recorder.hh"
#include "router/crossbar_switch.hh"

namespace {

using namespace orion;
using namespace orion::router;
using orion::sim::Event;
using orion::sim::EventBus;
using orion::sim::EventType;

Flit
makeFlit(unsigned width, std::uint64_t payload)
{
    Flit f;
    f.packet = PacketRef::make();
    f.payload = power::BitVec(width, payload);
    return f;
}

TEST(CrossbarSwitch, EmitsTraversalWithOutputComponent)
{
    EventBus bus;
    std::vector<Event> events;
    test::recordEvents(bus, {EventType::CrossbarTraversal}, events);

    CrossbarSwitch xbar(bus, 4, 5, 5, 32);
    xbar.traverse(1, 3, makeFlit(32, 0xff), 9);

    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].node, 4);
    EXPECT_EQ(events[0].component, 3);
    EXPECT_EQ(events[0].cycle, 9u);
    EXPECT_EQ(events[0].deltaA, 8u); // vs zeroed output wires
}

TEST(CrossbarSwitch, DeltaTracksPerOutputHistory)
{
    EventBus bus;
    std::vector<Event> events;
    test::recordEvents(bus, {EventType::CrossbarTraversal}, events);

    CrossbarSwitch xbar(bus, 0, 5, 5, 32);
    xbar.traverse(0, 2, makeFlit(32, 0xff), 0);   // 8 toggles
    xbar.traverse(1, 2, makeFlit(32, 0xff), 1);   // same value: 0
    xbar.traverse(0, 2, makeFlit(32, 0xf0), 2);   // 4 toggles
    // A different output has independent history.
    xbar.traverse(0, 4, makeFlit(32, 0xff), 3);   // 8 toggles

    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].deltaA, 8u);
    EXPECT_EQ(events[1].deltaA, 0u);
    EXPECT_EQ(events[2].deltaA, 4u);
    EXPECT_EQ(events[3].deltaA, 8u);
}

TEST(CrossbarSwitch, DifferentInputsSameOutputShareWires)
{
    // Output wires are physical: history is per output, regardless of
    // which input drove them.
    EventBus bus;
    std::vector<Event> events;
    test::recordEvents(bus, {EventType::CrossbarTraversal}, events);

    CrossbarSwitch xbar(bus, 0, 2, 2, 16);
    xbar.traverse(0, 1, makeFlit(16, 0x00ff), 0);
    xbar.traverse(1, 1, makeFlit(16, 0xff00), 1); // all 16 toggle

    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].deltaA, 16u);
}

} // namespace
