/**
 * @file
 * Synthetic communication workloads.
 *
 * The paper's case studies use uniform random traffic (Sections 4.2,
 * 4.4) and broadcast traffic from a single node (Sections 4.3, 4.4);
 * "both communication workloads inject packets at a uniform rate".
 * Several classic permutation patterns (transpose, bit-complement,
 * tornado, nearest-neighbour) and a hotspot pattern are provided as
 * well — the paper notes Orion "can be interfaced with actual
 * communication traces"; these patterns play that exploration role for
 * synthetic studies.
 *
 * Injection is a Bernoulli process: each cycle a node creates a packet
 * with probability equal to its injection rate.
 */

#ifndef ORION_NET_TRAFFIC_HH
#define ORION_NET_TRAFFIC_HH

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "net/topology.hh"
#include "net/trace.hh"
#include "sim/rng.hh"

namespace orion::net {

/** Workload pattern. */
enum class TrafficPattern
{
    /** Every node to uniformly random other nodes (paper 4.2). */
    UniformRandom,
    /** One source node to all other nodes in turn (paper 4.3). */
    Broadcast,
    /** (x, y) -> (y, x); diagonal nodes stay silent. 2-D only. */
    Transpose,
    /** Node i -> node (N-1-i) (bit complement of the node id). */
    BitComplement,
    /** Each dimension shifted by floor((k-1)/2) (adversarial for
     * rings). */
    Tornado,
    /** Each node to its +x neighbour. */
    NearestNeighbor,
    /** A fraction of traffic converges on one hot node, the rest is
     * uniform random. */
    Hotspot,
    /** Replay a recorded communication trace (see net/trace.hh). */
    Trace,
};

/** Workload parameters. */
struct TrafficParams
{
    TrafficPattern pattern = TrafficPattern::UniformRandom;
    /**
     * Packets per cycle per *injecting* node. For Broadcast only the
     * source node injects (the paper's Section 4.3 uses 0.2 at the
     * source vs 0.2/16 per node for the uniform workload it is
     * compared against).
     */
    double injectionRate = 0.1;
    /** Broadcast source node (defaults to node (1,2) of a 4x4 net in
     * the core presets; -1 means node 0). */
    int broadcastSource = -1;
    /** Hotspot target node. */
    int hotspotNode = 0;
    /** Fraction of hotspot traffic aimed at the hot node. */
    double hotspotFraction = 0.5;
    /** Records to replay for the Trace pattern. */
    std::shared_ptr<const std::vector<TraceRecord>> trace;
};

/** Pattern-driven packet source. */
class TrafficGenerator
{
  public:
    TrafficGenerator(const Topology& topo, const TrafficParams& params);

    const TrafficParams& params() const { return params_; }

    /** Injection rate of @p node (0 for silent nodes). */
    double nodeRate(int node) const;

    /**
     * Ask whether @p node creates a packet at cycle @p now: for
     * synthetic patterns a Bernoulli trial at the node's rate; for
     * traces, the next due record. Returns the destination, or
     * nullopt. Every node asks every cycle, so the synthetic trial is
     * inline and reads the rate fixed at construction.
     */
    std::optional<int>
    maybeInject(int node, sim::Cycle now, sim::Rng& rng)
    {
        if (params_.pattern == TrafficPattern::Trace)
            return nextTraceRecord(node, now);
        const double rate = rate_[static_cast<unsigned>(node)];
        if (rate <= 0.0 || !rng.chance(rate))
            return std::nullopt;
        return pickDestination(node, rng);
    }

    /** Destination @p node sends to under this pattern (never @p node
     * itself); randomized patterns consume @p rng. */
    int pickDestination(int node, sim::Rng& rng);

    /** True if @p node ever injects under this pattern. */
    bool injects(int node) const;

  private:
    /** Trace replay: pop @p node's next record if it is due at
     * @p now and return its destination. */
    std::optional<int> nextTraceRecord(int node, sim::Cycle now);

    /** The one destination of @p node under a permutation pattern
     * (Transpose, BitComplement, Tornado, NearestNeighbor). */
    int permutationDestination(int node) const;

    const Topology& topo_;
    TrafficParams params_;
    /** Injection rate per node, fixed at construction (synthetic
     * patterns; empty for Trace, whose rate is the records'). */
    std::vector<double> rate_;
    /** Destination per node under a permutation pattern, -1 for a
     * silent node; empty for the other patterns. */
    std::vector<int> fixedDest_;
    /** Broadcast round-robin pointer per node. */
    std::vector<unsigned> nextDest_;
    /** Per-node pending trace records, sorted by cycle. */
    std::vector<std::deque<TraceRecord>> pendingTrace_;
};

} // namespace orion::net

#endif // ORION_NET_TRAFFIC_HH
