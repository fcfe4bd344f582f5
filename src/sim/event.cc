#include "sim/event.hh"

#include "base/check.hh"

namespace orion::sim {

void
EventBus::subscribeRaw(EventType type, RawHandler fn, void* ctx)
{
    handlers_[static_cast<unsigned>(type)].push_back({fn, ctx});
}

ActivityCount
ActivityTally::total(EventType type) const
{
    ActivityCount t;
    for (unsigned n = 0; n < nodes_; ++n) {
        const ActivityCount& c = at(static_cast<int>(n), type);
        t.events += c.events;
        t.sumA += c.sumA;
        t.sumB += c.sumB;
        t.activeA += c.activeA;
    }
    return t;
}

void
ActivityTally::reset()
{
    std::fill(counts_.begin(), counts_.end(), ActivityCount{});
}

void
EventBus::attachTally(ActivityTally* tally)
{
    ORION_CHECK(tally_ == nullptr,
                "event bus already has an activity tally attached");
    tally_ = tally;
}

void
EventBus::detachTally(const ActivityTally* tally)
{
    if (tally_ == tally)
        tally_ = nullptr;
}

const char*
eventTypeName(EventType type)
{
    switch (type) {
      case EventType::BufferWrite:        return "buffer_write";
      case EventType::BufferRead:         return "buffer_read";
      case EventType::Arbitration:        return "arbitration";
      case EventType::VcAllocation:       return "vc_allocation";
      case EventType::CrossbarTraversal:  return "crossbar_traversal";
      case EventType::CentralBufferWrite: return "central_buffer_write";
      case EventType::CentralBufferRead:  return "central_buffer_read";
      case EventType::LinkTraversal:      return "link_traversal";
      case EventType::CreditTransfer:     return "credit_transfer";
      case EventType::PacketInjected:     return "packet_injected";
      case EventType::PacketEjected:      return "packet_ejected";
    }
    return "unknown";
}

} // namespace orion::sim
