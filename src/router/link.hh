/**
 * @file
 * Links: 1-cycle registered data and credit channels between routers
 * (and between nodes and routers).
 *
 * Paper Section 4.1: "propagation delay across data and credit
 * channels is assumed to take a single cycle". A FlitLink emits a
 * LinkTraversal power event when a flit is sent (the walkthrough's
 * "link traversal event, which calls the link power model"), carrying
 * the real wire-toggle count against the previous flit on the link.
 * Local injection/ejection connections are FlitLinks with traversal
 * events disabled (they are not inter-router links).
 */

#ifndef ORION_ROUTER_LINK_HH
#define ORION_ROUTER_LINK_HH

#include "power/activity.hh"
#include "router/credit.hh"
#include "router/fault_hooks.hh"
#include "router/flit.hh"
#include "sim/event.hh"
#include "sim/module.hh"

namespace orion::router {

/** A unidirectional flit channel with link-power event emission. */
class FlitLink : public sim::Channel<Flit>
{
  public:
    /**
     * @param node            node id charged for this link's power
     *                        (the sender, by convention)
     * @param component       sender's output port index
     * @param flit_bits       link width
     * @param emits_traversal false for local injection/ejection wiring
     */
    FlitLink(int node, int component, unsigned flit_bits,
             bool emits_traversal);

    /**
     * Send @p flit down the link: emits LinkTraversal (if enabled) and
     * stages the flit for delivery next cycle, moving it straight
     * from the sender's storage into the wire register.
     */
    void send(Flit&& flit, sim::EventBus& bus, sim::Cycle now);

    bool emitsTraversal() const { return emitsTraversal_; }

    /**
     * Attach fault hooks: every non-poison flit sent is offered to
     * @p hooks under registered link id @p link_id before the wire
     * toggles are computed, so corrupted bits cost real link energy.
     */
    void
    attachFaultHooks(FaultHooks* hooks, unsigned link_id)
    {
        faultHooks_ = hooks;
        faultLinkId_ = link_id;
    }

  private:
    int node_;
    int component_;
    bool emitsTraversal_;
    power::BitVec lastPayload_;
    FaultHooks* faultHooks_ = nullptr;
    unsigned faultLinkId_ = 0;
};

/** A unidirectional credit channel. */
class CreditLink : public sim::Channel<Credit>
{
  public:
    CreditLink(int node, int component);

    /** Send a credit upstream; emits a CreditTransfer event. */
    void send(Credit credit, sim::EventBus& bus, sim::Cycle now);

  private:
    int node_;
    int component_;
};

} // namespace orion::router

#endif // ORION_ROUTER_LINK_HH
