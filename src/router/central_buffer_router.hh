/**
 * @file
 * Central-buffered router (paper Section 4.4).
 *
 * "Central buffered routers (CB), where a shared central buffer
 * forwards flits between input and output ports of a router, have been
 * deployed in IBM SP/2 and InfiniBand routers and are chosen for their
 * potential for higher throughput over input-buffered crossbar-based
 * routers (XB), as they do not experience the head-of-line blocking
 * inherent in XB routers."
 *
 * Microarchitecture modeled:
 *  - one FIFO input buffer per port (e.g. 64 flits);
 *  - a shared pipelined central memory with a limited number of write
 *    ports and read ports (e.g. 2 + 2), organized as per-output-port
 *    packet queues over a common capacity pool (virtual cut-through:
 *    a packet is admitted only when the pool has room for all of it);
 *  - per-write-port and per-read-port arbitration each cycle.
 *
 * Flits become readable pipelineLatency cycles after being written,
 * modeling the pipeline registers of the shared memory [Katevenis et
 * al.]. Power events: input-buffer read/write, central-buffer
 * read/write (whose energies come from the hierarchical
 * power::CentralBufferModel), arbitrations, and link traversals.
 */

#ifndef ORION_ROUTER_CENTRAL_BUFFER_ROUTER_HH
#define ORION_ROUTER_CENTRAL_BUFFER_ROUTER_HH

#include <deque>
#include <memory>
#include <vector>

#include "power/activity.hh"
#include "router/arbiter.hh"
#include "router/fifo.hh"
#include "router/router.hh"

namespace orion::router {

/** Parameters specific to the central buffer of a CB router. */
struct CentralBufferRouterParams
{
    /** Shared pool capacity in flits (banks x rows x flits/row). */
    unsigned capacityFlits;
    /** Simultaneous writes per cycle. */
    unsigned writePorts = 2;
    /** Simultaneous reads per cycle. */
    unsigned readPorts = 2;
    /** Cycles between a write and the flit becoming readable. */
    unsigned pipelineLatency = 2;
};

/** Central-buffered router module. */
class CentralBufferRouter : public Router
{
  public:
    /**
     * @param params  base router parameters; vcs must be 1 (the input
     *                buffers are plain FIFOs) and bufferDepth is the
     *                input FIFO depth
     * @param cb      central-buffer organization
     */
    CentralBufferRouter(std::string name, int node,
                        const RouterParams& params,
                        const CentralBufferRouterParams& cb,
                        sim::EventBus& bus);

    void cycle(sim::Cycle now) override;

    /// @name Introspection (tests, audits)
    /// @{
    unsigned freeCentralSlots() const { return freeSlots_; }
    const FlitFifo& inputFifo(unsigned port) const;
    std::size_t outputQueueLength(unsigned port) const;
    /** Flits buffered across the per-port input FIFOs. */
    std::size_t bufferedFlits() const;
    /** Flits physically present in the central pool. */
    std::size_t pooledFlits() const;
    /** Pool slots reserved by admitted-but-unwritten flits (virtual
     * cut-through holds a whole packet's space at head admission). */
    std::size_t reservedSlots() const;
    /** bufferedFlits() + pooledFlits() (flit-conservation audit). */
    std::size_t residentFlits() const override;
    /// @}

  private:
    /** One packet resident in (or streaming through) the pool. */
    struct CbPacket
    {
        /** Flits present, each with the cycle it becomes readable. */
        std::deque<std::pair<Flit, sim::Cycle>> flits;
        /** True once the tail has been written. */
        bool complete = false;
        /** Packet length reserved against the pool at admission. */
        unsigned length = 0;
        /** Flits written into the pool so far (audit bookkeeping). */
        unsigned written = 0;
    };

    void readStage(sim::Cycle now);
    void writeStage(sim::Cycle now);
    void bwStage(sim::Cycle now);

    /** True when nothing is buffered, pooled or admitted (the
     * resident-state half of the skip-quiescent test). */
    bool quiescent() const;

    CentralBufferRouterParams cb_;

    /** Input FIFOs, one per port. */
    std::vector<FlitFifo> inputFifos_;
    /** Per-output-port queues of packets in the pool. */
    std::vector<std::deque<std::unique_ptr<CbPacket>>> outputQueues_;
    /** Packet each input port is currently streaming into the pool. */
    std::vector<CbPacket*> currentWrite_;
    /** Remaining pool capacity in flits. */
    unsigned freeSlots_;

    /** Per-write-port arbiter over input ports. */
    std::vector<std::unique_ptr<Arbiter>> writeArb_;
    /** Per-read-port arbiter over output ports. */
    std::vector<std::unique_ptr<Arbiter>> readArb_;

    /** Last datum each write port carried (activity tracking). */
    std::vector<power::BitVec> lastWritten_;
    /** Last datum each read port carried. */
    std::vector<power::BitVec> lastRead_;
    /** Stale row contents of the pool (ring-indexed), one flit's
     * payload words per row in one flat array. */
    std::vector<std::uint64_t> rowContents_;
    std::size_t writeRow_ = 0;
};

} // namespace orion::router

#endif // ORION_ROUTER_CENTRAL_BUFFER_ROUTER_HH
