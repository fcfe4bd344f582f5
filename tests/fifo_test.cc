/**
 * @file
 * Tests for the flit FIFO: ordering, capacity, and the power events it
 * emits with monitored switching activity.
 */

#include <gtest/gtest.h>

#include <vector>

#include "event_recorder.hh"
#include "router/fifo.hh"
#include "sim/event.hh"

namespace {

using namespace orion;
using namespace orion::router;
using orion::sim::Event;
using orion::sim::EventBus;
using orion::sim::EventType;

Flit
makeFlit(unsigned width, std::uint64_t payload, unsigned seq = 0)
{
    Flit f;
    f.packet = PacketRef::make();
    f.seq = seq;
    f.payload = power::BitVec(width, payload);
    return f;
}

TEST(FlitFifo, FifoOrdering)
{
    EventBus bus;
    FlitFifo fifo(bus, 0, 0, 4, 64);
    fifo.write(makeFlit(64, 1, 0), 0);
    fifo.write(makeFlit(64, 2, 1), 0);
    fifo.write(makeFlit(64, 3, 2), 0);
    EXPECT_EQ(fifo.size(), 3u);
    EXPECT_EQ(fifo.read(1).seq, 0u);
    EXPECT_EQ(fifo.read(1).seq, 1u);
    EXPECT_EQ(fifo.read(1).seq, 2u);
    EXPECT_TRUE(fifo.empty());
}

TEST(FlitFifo, CapacityAccounting)
{
    EventBus bus;
    FlitFifo fifo(bus, 0, 0, 2, 32);
    EXPECT_EQ(fifo.freeSlots(), 2u);
    fifo.write(makeFlit(32, 0), 0);
    EXPECT_EQ(fifo.freeSlots(), 1u);
    fifo.write(makeFlit(32, 0), 0);
    EXPECT_TRUE(fifo.full());
    fifo.read(0);
    EXPECT_FALSE(fifo.full());
    EXPECT_EQ(fifo.freeSlots(), 1u);
}

TEST(FlitFifo, EmitsWriteAndReadEvents)
{
    EventBus bus;
    std::vector<Event> events;
    test::recordEvents(bus, {EventType::BufferWrite, EventType::BufferRead},
                       events);

    FlitFifo fifo(bus, 3, 7, 4, 32);
    fifo.write(makeFlit(32, 0xff), 10);
    fifo.read(11);

    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].type, EventType::BufferWrite);
    EXPECT_EQ(events[0].node, 3);
    EXPECT_EQ(events[0].component, 7);
    EXPECT_EQ(events[0].cycle, 10u);
    EXPECT_EQ(events[1].type, EventType::BufferRead);
    EXPECT_EQ(events[1].cycle, 11u);
}

TEST(FlitFifo, WriteDeltasTrackBitlineDriverHistory)
{
    // First write into a zeroed array: delta_bw = popcount vs the
    // all-zero driver state; second write of the same datum: zero.
    EventBus bus;
    std::vector<Event> writes;
    test::recordEvents(bus, {EventType::BufferWrite}, writes);

    FlitFifo fifo(bus, 0, 0, 4, 32);
    fifo.write(makeFlit(32, 0xff), 0);      // 8 bits vs zeroed driver
    fifo.write(makeFlit(32, 0xff), 1);      // same datum: 0 switching
    fifo.write(makeFlit(32, 0xff00), 2);    // 16 bitlines switch

    ASSERT_EQ(writes.size(), 3u);
    EXPECT_EQ(writes[0].deltaA, 8u);
    EXPECT_EQ(writes[1].deltaA, 0u);
    EXPECT_EQ(writes[2].deltaA, 16u);
}

TEST(FlitFifo, CellDeltasTrackStaleRowContents)
{
    EventBus bus;
    std::vector<Event> writes;
    test::recordEvents(bus, {EventType::BufferWrite}, writes);

    // Capacity-1 FIFO: every write lands in the same row.
    FlitFifo fifo(bus, 0, 0, 1, 32);
    fifo.write(makeFlit(32, 0xff), 0); // row was zero: 8 cells flip
    fifo.read(0);
    fifo.write(makeFlit(32, 0xff), 1); // row holds 0xff: 0 cells flip
    fifo.read(1);
    fifo.write(makeFlit(32, 0x0f), 2); // 4 cells flip

    ASSERT_EQ(writes.size(), 3u);
    EXPECT_EQ(writes[0].deltaB, 8u);
    EXPECT_EQ(writes[1].deltaB, 0u);
    EXPECT_EQ(writes[2].deltaB, 4u);
}

TEST(FlitFifo, RowsReusedInRingOrder)
{
    EventBus bus;
    std::vector<Event> writes;
    test::recordEvents(bus, {EventType::BufferWrite}, writes);

    FlitFifo fifo(bus, 0, 0, 2, 32);
    fifo.write(makeFlit(32, 0xf), 0); // row 0: 4 flips
    fifo.write(makeFlit(32, 0xf), 0); // row 1: 4 flips (driver: 0)
    fifo.read(0);
    fifo.read(0);
    fifo.write(makeFlit(32, 0xf), 1); // row 0 again: holds 0xf, 0 flips

    ASSERT_EQ(writes.size(), 3u);
    EXPECT_EQ(writes[0].deltaB, 4u);
    EXPECT_EQ(writes[1].deltaB, 4u);
    EXPECT_EQ(writes[2].deltaB, 0u);
}

} // namespace
