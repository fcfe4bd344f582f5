/**
 * @file
 * Fault-injection hooks the router layer calls out through.
 *
 * The concrete injector (net::FaultInjector) lives in the net layer,
 * which owns topology-wide state (link registry, per-source NACK
 * queues, fault schedules). Routers and links only ever see this
 * abstract interface, so the router layer stays independent of net/.
 *
 * Every hook is invoked from the single simulation thread in the fixed
 * module-iteration order, so implementations may use plain state and
 * still yield bit-identical fault schedules for a given seed.
 */

#ifndef ORION_ROUTER_FAULT_HOOKS_HH
#define ORION_ROUTER_FAULT_HOOKS_HH

#include "router/flit.hh"
#include "sim/event.hh"

namespace orion::router {

/** Callback interface routers and links report faults through. */
class FaultHooks
{
  public:
    virtual ~FaultHooks() = default;

    /**
     * Called for every non-poison flit entering registered link
     * @p link. May corrupt @p flit's payload in place (bit errors,
     * outage garbage); the stamped linkCrc is left untouched so the
     * receiver detects the damage.
     */
    virtual void onLinkTraversal(unsigned link, Flit& flit,
                                 sim::Cycle now) = 0;

    /**
     * True if output port @p port of the router at node @p node is
     * stalled this cycle (scheduled port-stall fault). Must be a pure
     * schedule lookup — no RNG draws.
     */
    virtual bool portStalled(int node, unsigned port,
                             sim::Cycle now) = 0;

    /**
     * A receiver detected a corrupted flit of @p packet and killed the
     * packet's current attempt: request source retransmission (NACK).
     * May be called more than once per attempt (multi-hop faults);
     * sources deduplicate by (id, attempt).
     */
    virtual void onPacketKilled(const PacketRef& packet,
                                sim::Cycle now) = 0;

    /** A faulted or superseded flit was discarded at a router input
     * (its buffer credit is returned upstream separately). */
    virtual void onFlitDiscarded(const Flit& flit, sim::Cycle now) = 0;
};

} // namespace orion::router

#endif // ORION_ROUTER_FAULT_HOOKS_HH
