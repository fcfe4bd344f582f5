/**
 * @file
 * Flit FIFO buffer with power-event emission.
 *
 * This is the behavioural twin of power::BufferModel: an SRAM-array
 * FIFO of B flit slots. Every write emits a BufferWrite event carrying
 * the monitored switching activity (delta_bw switching write bitlines,
 * delta_bc flipped memory cells — computed against the write driver's
 * last datum and the stale contents of the target row); every read
 * emits a BufferRead event. This mirrors the paper's walkthrough: "The
 * buffer module writes the flit into the tail of the FIFO buffer and
 * emits a buffer write event, which triggers the buffer power model."
 */

#ifndef ORION_ROUTER_FIFO_HH
#define ORION_ROUTER_FIFO_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "router/flit.hh"
#include "sim/event.hh"

namespace orion::router {

/** A flit FIFO modeling one SRAM buffer (one VC of one input port). */
class FlitFifo
{
  public:
    /**
     * @param bus        event bus for power events
     * @param node       owning node id (stamped on events)
     * @param component  component instance id (stamped on events)
     * @param capacity   buffer depth in flits (B)
     * @param flit_bits  flit width in bits (F)
     */
    FlitFifo(sim::EventBus& bus, int node, int component,
             std::size_t capacity, unsigned flit_bits);

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ >= capacity_; }
    std::size_t freeSlots() const { return capacity_ - count_; }

    /**
     * Move @p flit into the tail slot; emits BufferWrite with the
     * monitored delta_bw / delta_bc. The FIFO must not be full.
     */
    void write(Flit&& flit, sim::Cycle now);

    /** The flit at the head (must not be empty). */
    const Flit&
    front() const
    {
        assert(count_ > 0);
        return slots_[head_];
    }

    /** Pop the head flit, moving it into @p dst; emits BufferRead. */
    void readInto(Flit& dst, sim::Cycle now);

    /** Pop and return the head flit; emits BufferRead. */
    Flit read(sim::Cycle now);

  private:
    /** Enlarge the ring (it grows geometrically up to capacity_). */
    void grow();

    sim::EventBus& bus_;
    int node_;
    int component_;
    std::size_t capacity_;
    unsigned flitBits_;

    /**
     * Ring of flit slots, grown on demand up to capacity_. Slots are
     * assigned (not reallocated) on every write, so a FIFO that has
     * warmed up recycles its Flit storage with no heap traffic — this
     * is the flit arena: per-(port, VC) reusable slots instead of
     * deque node churn.
     */
    std::vector<Flit> slots_;
    /** Index of the front flit within slots_. */
    std::size_t head_ = 0;
    /** Buffered flit count. */
    std::size_t count_ = 0;

    /** 64-bit words per flit payload. */
    std::size_t words_;
    /**
     * Stale contents of each SRAM row (ring-indexed), words_ words per
     * row, followed by one more row: the last datum the write bitline
     * drivers carried.
     */
    std::vector<std::uint64_t> rows_;
    /** Row the next write lands in. */
    std::size_t writeRow_ = 0;
};

} // namespace orion::router

#endif // ORION_ROUTER_FIFO_HH
