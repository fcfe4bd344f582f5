/**
 * @file
 * Runtime deadlock detection and recovery.
 *
 * Per-router progress counters feed a global detector: every probe
 * interval it compares each router's lifetime flitsForwarded ledger
 * against the last probe. A router that holds resident flits but
 * forwarded nothing accumulates frozen cycles; when every occupied
 * router has been frozen for the configured threshold (and packets
 * are in flight), the detector walks the routers' VC wait-for state —
 * credit waits toward downstream input VCs, VC-allocation waits toward
 * the input VC holding the requested output VC — extracts the actual
 * wait-for cycle, and recovers by poisoning the oldest blocked worm
 * whose head is parked at a VC front (router::Router::
 * poisonBlockedWorm). The poisoned attempt is NACKed through the
 * fault hooks, so the PR-3 retransmission path resends it; if
 * recovery is impossible (no diagnosable cycle victim, or the
 * recovery budget is spent) the run stops with
 * StopReason::DeadlockUnrecovered and the forensic snapshot renders
 * the wait-for graph.
 *
 * The detector reads only snapshot state (Router::vcWaitState) built
 * for input-buffered crossbar routers (VC and wormhole kinds);
 * central-buffer routers expose no per-VC wait state, so detection
 * falls back to the generic watchdog there. Everything is off by
 * default and deterministic: probes run on the single simulation
 * thread at fixed cycles, so results are bit-identical at any --jobs.
 */

#ifndef ORION_NET_DEADLOCK_HH
#define ORION_NET_DEADLOCK_HH

#include <cstdint>
#include <vector>

#include "sim/module.hh"

namespace orion::net {

class Network;

/** Runtime deadlock detection knobs (defaults = disabled). */
struct DeadlockDetectConfig
{
    bool enabled = false;
    /** Progress-probe period in cycles. */
    sim::Cycle probeCycles = 128;
    /** Frozen-cycle bound before the wait-for walk runs. */
    sim::Cycle thresholdCycles = 1024;
    /** Worm poisonings allowed before declaring the run
     * unrecoverable. */
    unsigned maxRecoveries = 16;
};

/** Global progress watcher + wait-for-cycle extractor/breaker. */
class DeadlockDetector : public sim::Module
{
  public:
    /** One VC in the extracted wait-for cycle (forensics). */
    struct WaitVc
    {
        int node = 0;
        unsigned port = 0;
        unsigned vc = 0;
        /** 0 idle, 1 waiting-for-VC, 2 active (holding an output
         * VC). */
        int phase = 0;
        unsigned outPort = 0;
        unsigned outVc = 0;
        std::uint64_t packetId = 0;
        sim::Cycle createdAt = 0;
        bool frontHead = false;
    };

    /** A wait-for edge: @p from waits on @p to, for credits when
     * from.phase is 2 (active), else for VC allocation. */
    struct WaitEdge
    {
        WaitVc from;
        WaitVc to;
    };

    DeadlockDetector(Network& net, const DeadlockDetectConfig& config);

    void cycle(sim::Cycle now) override;

    /// @name Results (Simulation, forensics, telemetry)
    /// @{
    /** Wait-for cycles found over the run. */
    std::uint64_t detections() const { return detections_; }
    /** Worms poisoned to break a cycle. */
    std::uint64_t recoveries() const { return recoveries_; }
    /** True once a detected cycle could not be broken; the run stops
     * with StopReason::DeadlockUnrecovered. */
    bool unrecoverable() const { return unrecoverable_; }
    /** The most recently extracted wait-for cycle, in edge order. */
    const std::vector<WaitVc>& lastWaitCycle() const
    {
        return lastWaitCycle_;
    }
    /** Every wait-for edge of the most recent detection's graph. */
    const std::vector<WaitEdge>& lastWaitEdges() const
    {
        return lastWaitEdges_;
    }
    /** Cycle of the most recent detection. */
    sim::Cycle lastDetectionAt() const { return lastDetectionAt_; }
    /// @}

  private:
    bool frozenEverywhere();
    void detect(sim::Cycle now);

    Network& net_;
    DeadlockDetectConfig cfg_;

    /** Per-router flitsForwarded at the previous probe. */
    std::vector<std::uint64_t> lastForwarded_;
    /** Per-router cycles spent occupied with zero forwarding. */
    std::vector<sim::Cycle> frozen_;

    std::uint64_t detections_ = 0;
    std::uint64_t recoveries_ = 0;
    bool unrecoverable_ = false;
    std::vector<WaitVc> lastWaitCycle_;
    std::vector<WaitEdge> lastWaitEdges_;
    sim::Cycle lastDetectionAt_ = 0;
};

} // namespace orion::net

#endif // ORION_NET_DEADLOCK_HH
