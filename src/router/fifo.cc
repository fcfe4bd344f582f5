#include "router/fifo.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "base/check.hh"

namespace orion::router {

FlitFifo::FlitFifo(sim::EventBus& bus, int node, int component,
                   std::size_t capacity, unsigned flit_bits)
    : bus_(bus),
      node_(node),
      component_(component),
      capacity_(capacity),
      flitBits_(flit_bits),
      words_((flit_bits + 63) / 64),
      rows_((capacity + 1) * words_, 0)
{
    assert(capacity > 0 && flit_bits > 0);
}

void
FlitFifo::grow()
{
    // Deep buffers (central-queue presets run hundreds of flits) would
    // waste memory if every VC preallocated its full depth, so the
    // ring starts empty and doubles toward capacity_ as occupancy
    // actually demands it. Rebuild in front-to-back order so head_
    // restarts at slot 0.
    const std::size_t want =
        std::min(capacity_, std::max<std::size_t>(4, slots_.size() * 2));
    std::vector<Flit> bigger;
    bigger.reserve(want);
    for (std::size_t i = 0; i < count_; ++i)
        bigger.push_back(std::move(slots_[(head_ + i) % slots_.size()]));
    bigger.resize(want);
    slots_ = std::move(bigger);
    head_ = 0;
}

void
FlitFifo::write(Flit&& flit, sim::Cycle now)
{
    ORION_CHECK(!full(), "FIFO overflow (credit discipline violated) at "
                             << "node " << node_ << " component "
                             << component_ << " depth " << capacity_);
    assert(flit.payload.width() == flitBits_);

    // delta_bw counts switching write bitlines (new datum vs the
    // drivers' last one), delta_bc flipped cells (vs the row's stale
    // contents); see power::switchingWriteBitlines / flippedCells.
    unsigned delta_bw = 0;
    unsigned delta_bc = 0;
    const std::uint64_t* datum = flit.payload.data();
    std::uint64_t* row = &rows_[writeRow_ * words_];
    std::uint64_t* driver = &rows_[capacity_ * words_];
    for (std::size_t k = 0; k < words_; ++k) {
        delta_bw += static_cast<unsigned>(std::popcount(datum[k] ^ driver[k]));
        delta_bc += static_cast<unsigned>(std::popcount(datum[k] ^ row[k]));
        driver[k] = row[k] = datum[k];
    }
    writeRow_ = (writeRow_ + 1) % capacity_;

    bus_.emit({sim::EventType::BufferWrite, node_, component_, delta_bw,
               delta_bc, now});
    if (count_ == slots_.size())
        grow();
    std::size_t tail = head_ + count_;
    if (tail >= slots_.size())
        tail -= slots_.size();
    slots_[tail] = std::move(flit);
    ++count_;
}

void
FlitFifo::readInto(Flit& dst, sim::Cycle now)
{
    ORION_CHECK(!empty(), "FIFO underflow: read from empty buffer at "
                              << "node " << node_ << " component "
                              << component_);
    dst = std::move(slots_[head_]);
    ++head_;
    if (head_ == slots_.size())
        head_ = 0;
    --count_;
    bus_.emit({sim::EventType::BufferRead, node_, component_, 0, 0, now});
}

Flit
FlitFifo::read(sim::Cycle now)
{
    Flit f;
    readInto(f, now);
    return f;
}

} // namespace orion::router
