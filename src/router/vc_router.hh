/**
 * @file
 * The input-buffered crossbar router — the paper's wormhole and
 * virtual-channel router microarchitectures in one parameterized
 * module (Section 2.2: "wormhole and virtual-channel networks share
 * exactly the same modules but with differently configured functional
 * and timing behavior").
 *
 * Pipeline (per the Peh-Dally router delay model the paper adopts):
 *  - Virtual-channel mode (vaEnabled): 3 stages — VC allocation (VA),
 *    switch allocation (SA), crossbar traversal (ST).
 *  - Wormhole mode (!vaEnabled, vcs = 1): 2 stages — switch
 *    arbitration (SA, which also claims the output port for the
 *    packet), crossbar traversal (ST).
 *
 * Within one cycle() call the stages run back-to-front (credits, ST,
 * SA, VA, buffer write) so that each pipeline stage consumes state
 * produced in the *previous* cycle, yielding exact n-stage timing.
 *
 * Every stage emits the power events of the paper's walkthrough:
 * buffer write on arrival, arbitration at SA (and VC allocation at
 * VA), buffer read on switch grant, crossbar traversal at ST, link
 * traversal on departure, credit transfer upstream.
 */

#ifndef ORION_ROUTER_VC_ROUTER_HH
#define ORION_ROUTER_VC_ROUTER_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "router/arbiter.hh"
#include "router/crossbar_switch.hh"
#include "router/fifo.hh"
#include "router/router.hh"
#include "router/vc_state.hh"

namespace orion::router {

/** Input-buffered crossbar router (wormhole or virtual-channel). */
class CrossbarRouter : public Router
{
  public:
    /**
     * @param va_enabled  true for the 3-stage virtual-channel
     *                    pipeline, false for the 2-stage wormhole one
     */
    CrossbarRouter(std::string name, int node, const RouterParams& params,
                   sim::EventBus& bus, bool va_enabled);

    void cycle(sim::Cycle now) override;

    /// @name Introspection (tests and debugging)
    /// @{
    const FlitFifo& inputFifo(unsigned port, unsigned vc) const;
    bool outVcBusy(unsigned port, unsigned vc) const;
    bool vaEnabled() const { return vaEnabled_; }
    /** Flits currently buffered across all input FIFOs. */
    std::size_t bufferedFlits() const;
    /** Flits sitting in the SA -> ST pipeline latches. */
    std::size_t latchedFlits() const;
    /** bufferedFlits() + latchedFlits() (flit-conservation audit). */
    std::size_t residentFlits() const override;
    std::size_t latchedForOutput(unsigned port,
                                 unsigned vc) const override;

    /**
     * Test-only corruption hook: silently discard the head flit of
     * input FIFO (@p port, @p vc) with no credit return and no
     * delivery, so the flit-conservation audit can prove it detects
     * lost flits. The FIFO must not be empty.
     */
    void debugDropFlit(unsigned port, unsigned vc);

    /**
     * Recompute the per-port VC masks from the FIFOs, the VcState
     * phases and the output VCs the Active states hold, and check
     * every bit with ORION_AUDIT (a paranoid-level audit; a mismatch
     * names the router, port and VC). net::NetworkAuditor runs it
     * over every crossbar router.
     */
    void auditVcMasks() const;
    /// @}

    /// @name Deadlock-detector hooks
    /// @{
    bool vcWaitState(unsigned port, unsigned vc,
                     VcWaitState& out) const override;
    bool poisonBlockedWorm(unsigned port, unsigned vc,
                           sim::Cycle now) override;
    /// @}

  private:
    /** A switch request an input port puts forward this cycle. */
    struct Candidate
    {
        unsigned vc;
        unsigned outPort;
        unsigned outVc;
        /** Wormhole: claim the output VC when the grant lands. */
        bool claimOnGrant;
    };

    struct StEntry
    {
        Flit flit;
        unsigned inPort = 0;
    };

    void stStage(sim::Cycle now);
    void saStage(sim::Cycle now);
    void vaStage(sim::Cycle now);
    void bwStage(sim::Cycle now);

    /** Pick this cycle's switch request for input port @p p into
     * @p c; false when the port has none. */
    bool pickCandidate(unsigned p, Candidate& c);

    /** VC index range [first, last) for dateline class @p cls. */
    std::pair<unsigned, unsigned> classVcRange(unsigned cls) const;

    /** Free output VC of class @p cls at output @p o for a head
     * bidding at VA, scanning from vaScan_[o]; -1 if none. */
    int freeOutputVc(unsigned o, unsigned cls) const;

    /** SA requester index of input @p p at output @p o (u-turn-free). */
    static unsigned
    saRequester(unsigned p, unsigned o)
    {
        return p < o ? p : p - 1;
    }

    /** VA requester index of input VC (p, v) at output @p o. */
    unsigned
    vaRequester(unsigned p, unsigned v, unsigned o) const
    {
        return saRequester(p, o) * params_.vcs + v;
    }

    /// @name Struct-of-arrays per-VC state
    /// All [port][vc] state lives in flat arrays indexed
    /// port * vcs + vc; the allocation stages find the VCs to visit
    /// in the per-port masks_ words instead of testing every VC.
    /// @{
    unsigned
    vcIndex(unsigned p, unsigned v) const
    {
        return p * params_.vcs + v;
    }

    FlitFifo& fifoAt(unsigned p, unsigned v)
    {
        return fifos_[vcIndex(p, v)];
    }
    VcState& vcStateAt(unsigned p, unsigned v)
    {
        return vcState_[vcIndex(p, v)];
    }
    /// @}

    bool vaEnabled_;
    CrossbarSwitch xbar_;

    /** Input buffers, flattened [port * vcs + vc]. */
    std::vector<FlitFifo> fifos_;
    /** Input VC control state, flattened [port * vcs + vc]. */
    std::vector<VcState> vcState_;

    /**
     * Summaries of one port's VC state, bit v = VC v (hence vcs <= 64).
     * SA walks nonEmpty & active, VA walks nonEmpty & ~active and
     * takes output VCs from ~held, so neither stage tests a VC that
     * cannot act. Every stage that changes a FIFO's emptiness,
     * whether a VC is Active, or an output VC's holder updates its
     * bit in the same statement block (auditVcMasks() checks the
     * three against the state they summarize).
     */
    struct PortMasks
    {
        /** Input FIFO (p, v) holds at least one flit. */
        std::uint64_t nonEmpty = 0;
        /** Input VC (p, v) is Active (holds an output VC). */
        std::uint64_t active = 0;
        /** Output VC (p, v) is held by a packet. */
        std::uint64_t held = 0;
    };
    /** One PortMasks per port. */
    std::vector<PortMasks> masks_;
    /** Per-output switch arbiter (R = ports-1, u-turn excluded). */
    std::vector<std::unique_ptr<Arbiter>> saArb_;
    /** Per-output-VC allocation arbiter, flattened [port * vcs + vc]. */
    std::vector<std::unique_ptr<Arbiter>> vaArb_;
    /** Round-robin VC scan start per input port. */
    std::vector<unsigned> rrNextVc_;
    /** Rotating free-VC scan start per output port. */
    std::vector<unsigned> vaScan_;
    /** SA -> ST pipeline latch, one slot per output port. */
    std::vector<StEntry> stLatch_;
    /** Occupied latch slots, one bit per output port. */
    std::uint64_t latched_ = 0;

    /** Total buffered flits (fast idle-router skip). */
    unsigned totalFlits_ = 0;

    /// @name Per-cycle workspaces (members to avoid re-allocation)
    /// Request words are all zero between cycles: each stage clears
    /// the words it set once it has arbitrated them.
    /// @{
    /** Switch request per input port (valid where saStage saw one). */
    std::vector<Candidate> saCand_;
    /** SA request word per output port: bit saRequester(p, o). */
    std::vector<std::uint64_t> saReqs_;
    /** Words per VA request set ((ports - 1) * vcs requesters). */
    std::size_t vaWords_;
    /** VA request sets, vaWords_ words per (output port, output VC),
     * flattened [(outPort * vcs + outVc) * vaWords_]. */
    std::vector<std::uint64_t> vaReqs_;
    /** VA requesters entering a new ring, vaWords_ words per output
     * port (bit positions as in vaReqs_). */
    std::vector<std::uint64_t> vaNewRing_;
    /// @}
};

} // namespace orion::router

#endif // ORION_ROUTER_VC_ROUTER_HH
