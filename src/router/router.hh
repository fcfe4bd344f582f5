/**
 * @file
 * Router base class: port/link plumbing and credit bookkeeping shared
 * by all router microarchitectures (wormhole, virtual-channel,
 * central-buffered).
 *
 * Port convention (k-ary n-cube): for dimension d, port 2d is the
 * "plus" direction, port 2d+1 the "minus" direction; the last port
 * (index 2n) is the local injection/ejection port.
 */

#ifndef ORION_ROUTER_ROUTER_HH
#define ORION_ROUTER_ROUTER_HH

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "router/arbiter.hh"
#include "router/credit.hh"
#include "router/fault_hooks.hh"
#include "router/link.hh"
#include "sim/event.hh"
#include "sim/module.hh"

namespace orion::router {

/**
 * Deadlock-avoidance discipline for rings (tori). The paper is silent
 * on torus deadlock; see DESIGN.md for the substitution rationale.
 */
enum class DeadlockMode
{
    /** No avoidance — faithful to the paper's description. */
    None,
    /**
     * Bubble rule: a head flit may enter a new ring only if the
     * downstream buffer retains space for two full packets, and may
     * continue within a ring only with space for one full packet.
     * Requires buffer depth >= 2 packets; suited to wormhole routers
     * with deep single buffers.
     */
    Bubble,
    /**
     * Dateline VC classes: packets whose ring traversal crosses the
     * wraparound edge use the upper half of the VCs for that ring,
     * others the lower half (classes are precomputed in the source
     * route). Requires >= 2 VCs.
     */
    Dateline,
};

/** Common architectural parameters of a router. */
struct RouterParams
{
    /** Total ports, including the local injection/ejection port. */
    unsigned ports;
    /** Virtual channels per input port (1 for wormhole). */
    unsigned vcs;
    /** Buffer depth per VC, in flits. */
    unsigned bufferDepth;
    /** Flit width in bits. */
    unsigned flitBits;
    /** Packet length in flits (for bubble-rule space checks). */
    unsigned packetLength;
    /** Ring deadlock-avoidance discipline. */
    DeadlockMode deadlock = DeadlockMode::None;
    /** Behavioural arbiter style for all of the router's arbiters. */
    ArbiterKind arbiterKind = ArbiterKind::Matrix;
    /**
     * Speculative VC router pipeline (Peh-Dally [15], the paper's
     * router delay model source): VC allocation and switch allocation
     * run in the same cycle, so a head flit granted a VC can traverse
     * the switch one cycle earlier — a 2-stage VC pipeline. Ignored
     * by wormhole and central-buffer routers.
     */
    bool speculative = false;

    /** Index of the local port (always the last one). */
    unsigned localPort() const { return ports - 1; }
};

/** Base class wiring ports to links and tracking output credits. */
class Router : public sim::Module
{
  public:
    Router(std::string name, int node, const RouterParams& params,
           sim::EventBus& bus);

    const RouterParams& params() const { return params_; }

    /**
     * Attach input side of port @p port: flits arrive on @p in; freed
     * buffer slots are returned upstream on @p credit_return.
     * Either pointer may be null for unconnected ports (e.g. mesh
     * edges); null inputs never deliver flits.
     */
    void connectInput(unsigned port, FlitLink* in,
                      CreditLink* credit_return);

    /**
     * Attach output side of port @p port: flits leave on @p out;
     * downstream credits arrive on @p credit_in.
     *
     * @param downstream_vcs    VC count of the downstream input buffer
     * @param downstream_depth  its per-VC depth in flits
     * @param unlimited         true for ejection ports (infinite sink)
     */
    void connectOutput(unsigned port, FlitLink* out,
                       CreditLink* credit_in, unsigned downstream_vcs,
                       unsigned downstream_depth, bool unlimited);

    /** Credits available toward output @p port, VC @p vc. */
    unsigned
    outputCredits(unsigned port, unsigned vc) const
    {
        assert(port < params_.ports && outputCredits_[port]);
        return outputCredits_[port]->available(vc);
    }

    /// @name Audit / test hooks (net::NetworkAuditor, tests)
    /// @{
    /**
     * The sender-side credit counter for output @p port, or nullptr
     * for an unconnected port. Read-only network-audit access.
     */
    const CreditCounter* outputCreditCounter(unsigned port) const;

    /**
     * Flits resident inside this router (input buffers, pipeline
     * latches, central-buffer pool) — the router's contribution to the
     * network-wide flit-conservation sum.
     */
    virtual std::size_t residentFlits() const = 0;

    /**
     * Flits latched for departure through output @p port carrying
     * downstream VC @p vc — flits whose output credit is already
     * consumed but which have not yet reached the link (the crossbar
     * router's SA -> ST latch). Part of the credit-audit equation.
     */
    virtual std::size_t
    latchedForOutput(unsigned port, unsigned vc) const
    {
        (void)port;
        (void)vc;
        return 0;
    }

    /**
     * Test-only corruption hook: steal one sender-side credit for
     * output @p port, VC @p vc, with no matching flit motion. Exists
     * so the credit audit's detection power is itself testable.
     */
    void debugCorruptCredit(unsigned port, unsigned vc);

    /** Flits that ever entered this router (lifetime ledger). */
    std::uint64_t flitsArrived() const { return flitsArrived_; }
    /** Flits that ever left this router (lifetime ledger). */
    std::uint64_t flitsForwarded() const { return flitsForwarded_; }
    /** Arrived flits discarded by fault screening (lifetime ledger):
     * flitsArrived_ == flitsForwarded_ + residentFlits() +
     * flitsDiscarded_ always. */
    std::uint64_t flitsDiscarded() const { return flitsDiscarded_; }

    /**
     * Credits owed upstream on input @p port for downstream VC @p vc
     * but not yet placed on the credit-return wire (the wire carries
     * one credit per cycle; fault discards can free two slots for one
     * port in a cycle). Part of the credit-audit equation.
     */
    std::size_t pendingCreditReturns(unsigned port, unsigned vc) const;
    /// @}

    /// @name Telemetry counters (net::WindowedSampler reads these)
    /// @{
    /**
     * Lifetime count of switch-allocation requests that did not
     * receive a grant in their cycle — arbitration losses plus
     * requests blocked by an occupied SA->ST latch. A per-window delta
     * of this counter is the router's contention signal.
     */
    std::uint64_t saStalls() const { return saStalls_; }

    /**
     * Credits currently consumed toward downstream buffers across all
     * connected, credit-limited outputs: the router's in-flight /
     * downstream-buffered flit budget as the sender sees it.
     */
    std::size_t creditsInFlight() const;
    /// @}

    /**
     * Attach fault hooks. Must be called before the first cycle; a
     * null-hooks router runs the exact fault-free fast path.
     */
    void setFaultHooks(FaultHooks* hooks);

    /// @name Deadlock-detector hooks (net::DeadlockDetector)
    /// @{
    /**
     * Snapshot of one input VC's wait-for state, read by the runtime
     * deadlock detector to build the wait-for graph. Only routers with
     * per-VC allocation state (the crossbar VC router) fill it in.
     */
    struct VcWaitState
    {
        /** The VC holds at least one buffered flit. */
        bool hasFront = false;
        /** The front flit is a worm head (VC not yet streaming). */
        bool frontHead = false;
        /** VC allocation phase: 0 idle, 1 waiting-for-VC, 2 active. */
        int phase = 0;
        /** Requested/held output port (valid when phase != 0). */
        unsigned outPort = 0;
        /** Held output VC (valid when phase == 2). */
        unsigned outVc = 0;
        /** Dateline VC class the head bids in (valid when phase == 1). */
        unsigned vcClass = 0;
        /** Packet occupying the VC front (valid when hasFront). */
        std::uint64_t packetId = 0;
        unsigned attempt = 0;
        sim::Cycle createdAt = 0;
    };

    /**
     * Fill @p out with the wait state of input (@p port, @p vc).
     * Returns false when this router kind exposes no such state.
     */
    virtual bool vcWaitState(unsigned port, unsigned vc,
                             VcWaitState& out) const
    {
        (void)port;
        (void)vc;
        (void)out;
        return false;
    }

    /**
     * Deadlock recovery: kill the worm whose head is parked at the
     * front of input (@p port, @p vc) — NACK its source via the fault
     * hooks, discard its buffered flits with exact credit returns, and
     * arm drop-until-tail for the part still in flight upstream.
     * Returns false when the VC front is not a head (or the router
     * kind does not support poisoning); the caller picks a different
     * victim.
     */
    virtual bool poisonBlockedWorm(unsigned port, unsigned vc,
                                   sim::Cycle now)
    {
        (void)port;
        (void)vc;
        (void)now;
        return false;
    }
    /// @}

  protected:
    /** What to do with a flit read off an input link. */
    enum class ArrivalAction
    {
        Deliver,
        Discard,
    };

    /**
     * Fault screening for a flit arriving on input @p port, called
     * only when fault hooks are attached. Applies, in order: the
     * drop-until-tail state for a killed worm, poison immunity, and
     * the CRC check. May discard the flit (credit still returned
     * upstream, ledgered in flitsDiscarded_) or rewrite it into a
     * poison tail; returns what the caller should do with it.
     */
    ArrivalAction screenArrival(unsigned port, Flit& flit,
                                sim::Cycle now);

    /**
     * Return one credit upstream on input @p port for VC @p vc,
     * deferring through pendingCredits_ when the wire is already
     * carrying a credit this cycle. All credit returns go through
     * here so deferred and fresh credits stay FIFO per port.
     */
    void sendCreditUpstream(unsigned port, unsigned vc, sim::Cycle now);

    /** Put deferred credit returns on idle credit wires (one per port
     * per cycle). Call at the top of cycle(); no-op without faults. */
    void drainPendingCredits(sim::Cycle now);

    /** Drain the credit-in channels raised in creditInputs_ and
     * restore output credit counters. */
    void receiveCredits();

    /** True if @p port is the local ejection port. */
    bool isLocalPort(unsigned port) const;

    /**
     * Arm the drop-until-tail screen for input (@p port, @p vc) so the
     * still-in-flight remainder of attempt @p attempt of packet
     * @p packet_id is discarded on arrival (used by deadlock recovery
     * when the victim worm's tail has not reached this router yet).
     * Requires fault hooks; no-op otherwise.
     */
    void armDropUntilTail(unsigned port, unsigned vc,
                          std::uint64_t packet_id, unsigned attempt);

    /**
     * Minimum downstream space the bubble rule demands for a head flit
     * leaving via @p out_port (1 packet within a ring, 2 when entering
     * a new ring); 1 flit when bubble mode is off or the port is
     * local.
     */
    unsigned requiredSpace(bool is_head, bool new_ring,
                           unsigned out_port) const;

    RouterParams params_;
    sim::EventBus& bus_;

    std::vector<FlitLink*> inLinks_;
    std::vector<CreditLink*> creditReturnLinks_;
    std::vector<FlitLink*> outLinks_;
    std::vector<CreditLink*> creditInLinks_;
    std::vector<std::unique_ptr<CreditCounter>> outputCredits_;

    /** Lifetime arrival/departure ledgers (conservation audit):
     * flitsArrived_ == flitsForwarded_ + residentFlits() +
     * flitsDiscarded_ always. */
    std::uint64_t flitsArrived_ = 0;
    std::uint64_t flitsForwarded_ = 0;
    std::uint64_t flitsDiscarded_ = 0;

    /** Ungranted switch-allocation requests (see saStalls()). */
    std::uint64_t saStalls_ = 0;

    FaultHooks* faultHooks_ = nullptr;

    /**
     * Wake masks, one bit per port: an attached flit input (credit
     * input) raises its port's bit in flitInputs_ (creditInputs_) when
     * a message becomes readable. bwStage and receiveCredits read
     * exactly the raised ports, in ascending order, and clear the
     * mask. Routers combine the masks with their resident-state
     * counters for the skip-quiescent fast path: a router with no
     * buffered flits, no latched outputs, no deferred credits and no
     * raised wake bit can skip its cycle entirely — nothing it would
     * compute or emit differs from not running at all.
     */
    std::uint64_t flitInputs_ = 0;
    std::uint64_t creditInputs_ = 0;

    /** Deferred upstream credits across all ports (size of the
     * pendingCredits_ queues; part of the quiescence test). */
    std::size_t pendingCreditTotal_ = 0;

  private:
    /** Drop-until-tail state per (input port, VC): set when a worm's
     * head (or an upstream poison substitute) is killed so the rest of
     * that attempt's flits are discarded on arrival. */
    struct DropState
    {
        bool active = false;
        std::uint64_t packetId = 0;
        unsigned attempt = 0;
    };

    /** Ledger + credit return + hook notification for one discarded
     * arrival; drops the flit's packet reference. */
    void discardArrival(unsigned port, Flit& flit, sim::Cycle now);

    std::vector<std::vector<DropState>> dropState_;
    /** Credits owed upstream but not yet on the wire, per input port
     * (FIFO; drained one per port per cycle). */
    std::vector<std::deque<Credit>> pendingCredits_;
};

} // namespace orion::router

#endif // ORION_ROUTER_ROUTER_HH
