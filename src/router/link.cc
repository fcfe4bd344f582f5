#include "router/link.hh"

#include <utility>

namespace orion::router {

FlitLink::FlitLink(int node, int component, unsigned flit_bits,
                   bool emits_traversal)
    : node_(node),
      component_(component),
      emitsTraversal_(emits_traversal),
      lastPayload_(flit_bits)
{
}

void
FlitLink::send(Flit&& flit, sim::EventBus& bus, sim::Cycle now)
{
    // Poison tails are exempt from faulting: corrupting one would
    // reopen a worm the receiver already closed, breaking forward
    // progress under sustained error rates.
    if (faultHooks_ && !flit.poison)
        faultHooks_->onLinkTraversal(faultLinkId_, flit, now);
    if (emitsTraversal_) {
        const unsigned delta =
            power::hammingDistance(flit.payload, lastPayload_);
        lastPayload_ = flit.payload;
        bus.emit({sim::EventType::LinkTraversal, node_, component_,
                  delta, 0, now});
    }
    write(std::move(flit));
}

CreditLink::CreditLink(int node, int component)
    : node_(node), component_(component)
{
}

void
CreditLink::send(Credit credit, sim::EventBus& bus, sim::Cycle now)
{
    bus.emit({sim::EventType::CreditTransfer, node_, component_, 0, 0,
              now});
    write(std::move(credit));
}

} // namespace orion::router
