#include "net/traffic.hh"

#include <algorithm>
#include <cassert>

namespace orion::net {

TrafficGenerator::TrafficGenerator(const Topology& topo,
                                   const TrafficParams& params)
    : topo_(topo), params_(params), nextDest_(topo.numNodes(), 0)
{
    assert(params.injectionRate >= 0.0 && params.injectionRate <= 1.0);
    if (params_.pattern == TrafficPattern::Broadcast &&
        params_.broadcastSource < 0) {
        params_.broadcastSource = 0;
    }
    assert(params_.pattern != TrafficPattern::Transpose ||
           topo.dimensions() == 2);
    assert(params_.hotspotFraction >= 0.0 &&
           params_.hotspotFraction <= 1.0);

    if (params_.pattern == TrafficPattern::Trace) {
        assert(params_.trace && "Trace pattern needs records");
        Trace::validate(*params_.trace, topo.numNodes());
        pendingTrace_.resize(topo.numNodes());
        std::vector<TraceRecord> sorted = *params_.trace;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const TraceRecord& a, const TraceRecord& b) {
                             return a.cycle < b.cycle;
                         });
        for (const auto& r : sorted)
            pendingTrace_[static_cast<unsigned>(r.src)].push_back(r);
        return;
    }

    // A synthetic pattern fixes each node's rate, and a permutation
    // pattern each node's destination, for the whole run: derive them
    // once here, not per node per cycle (Transpose's injects() and the
    // coordinate patterns' destinations build a coordinate vector).
    const unsigned nodes = topo.numNodes();
    rate_.resize(nodes);
    for (unsigned n = 0; n < nodes; ++n)
        rate_[n] = injects(static_cast<int>(n)) ? params_.injectionRate
                                                 : 0.0;
    const TrafficPattern p = params_.pattern;
    if (p == TrafficPattern::Transpose ||
        p == TrafficPattern::BitComplement ||
        p == TrafficPattern::Tornado ||
        p == TrafficPattern::NearestNeighbor) {
        fixedDest_.assign(nodes, -1);
        for (unsigned n = 0; n < nodes; ++n) {
            if (injects(static_cast<int>(n)))
                fixedDest_[n] = permutationDestination(static_cast<int>(n));
        }
    }
}

bool
TrafficGenerator::injects(int node) const
{
    switch (params_.pattern) {
      case TrafficPattern::Broadcast:
        return node == params_.broadcastSource;
      case TrafficPattern::Transpose: {
        const Coord c = topo_.coordsOf(node);
        return c[0] != c[1];
      }
      case TrafficPattern::BitComplement:
        return node != static_cast<int>(topo_.numNodes()) - 1 - node;
      case TrafficPattern::Tornado: {
        // Silent only if every dimension's shift is zero (k <= 1,
        // which the topology forbids, or k == 2 where the shift is 0).
        for (unsigned d = 0; d < topo_.dimensions(); ++d)
            if ((topo_.radix(d) - 1) / 2 > 0)
                return true;
        return false;
      }
      case TrafficPattern::Hotspot:
        // The hot node itself still sends its uniform share.
        return topo_.numNodes() > 1;
      case TrafficPattern::Trace:
        return !pendingTrace_.empty() &&
               !pendingTrace_[static_cast<unsigned>(node)].empty();
      case TrafficPattern::UniformRandom:
      case TrafficPattern::NearestNeighbor:
        return topo_.numNodes() > 1;
    }
    return false;
}

double
TrafficGenerator::nodeRate(int node) const
{
    if (params_.pattern == TrafficPattern::Trace)
        return injects(node) ? -1.0 : 0.0; // rate is trace-defined
    return rate_[static_cast<unsigned>(node)];
}

std::optional<int>
TrafficGenerator::nextTraceRecord(int node, sim::Cycle now)
{
    auto& pending = pendingTrace_[static_cast<unsigned>(node)];
    if (pending.empty() || pending.front().cycle > now)
        return std::nullopt;
    const int dst = pending.front().dst;
    pending.pop_front();
    return dst;
}

int
TrafficGenerator::pickDestination(int node, sim::Rng& rng)
{
    const auto n = static_cast<int>(topo_.numNodes());
    assert(n > 1 && (fixedDest_.empty()
                         ? injects(node)
                         : fixedDest_[static_cast<unsigned>(node)] >= 0));

    switch (params_.pattern) {
      case TrafficPattern::UniformRandom: {
        // Uniform over the n-1 nodes other than the source.
        auto d = static_cast<int>(rng.below(n - 1));
        if (d >= node)
            ++d;
        return d;
      }
      case TrafficPattern::Broadcast: {
        // Round-robin over all other nodes so every destination
        // receives the same share ("one node injects packets to all
        // the other nodes in the network").
        auto& ptr = nextDest_[static_cast<unsigned>(node)];
        auto d = static_cast<int>(ptr);
        ptr = (ptr + 1) % (n - 1);
        if (d >= node)
            ++d;
        return d;
      }
      case TrafficPattern::Transpose:
      case TrafficPattern::BitComplement:
      case TrafficPattern::Tornado:
      case TrafficPattern::NearestNeighbor:
        return fixedDest_[static_cast<unsigned>(node)];
      case TrafficPattern::Hotspot: {
        if (node != params_.hotspotNode &&
            rng.chance(params_.hotspotFraction)) {
            return params_.hotspotNode;
        }
        auto d = static_cast<int>(rng.below(n - 1));
        if (d >= node)
            ++d;
        return d;
      }
      case TrafficPattern::Trace: {
        const auto& pending =
            pendingTrace_[static_cast<unsigned>(node)];
        assert(!pending.empty());
        return pending.front().dst;
      }
    }
    return (node + 1) % n;
}

int
TrafficGenerator::permutationDestination(int node) const
{
    switch (params_.pattern) {
      case TrafficPattern::Transpose: {
        Coord c = topo_.coordsOf(node);
        std::swap(c[0], c[1]);
        return topo_.nodeAt(c);
      }
      case TrafficPattern::BitComplement:
        return static_cast<int>(topo_.numNodes()) - 1 - node;
      case TrafficPattern::Tornado: {
        Coord c = topo_.coordsOf(node);
        for (unsigned d = 0; d < topo_.dimensions(); ++d) {
            const unsigned k = topo_.radix(d);
            c[d] = (c[d] + (k - 1) / 2) % k;
        }
        return topo_.nodeAt(c);
      }
      case TrafficPattern::NearestNeighbor: {
        Coord c = topo_.coordsOf(node);
        c[0] = (c[0] + 1) % topo_.radix(0);
        return topo_.nodeAt(c);
      }
      case TrafficPattern::UniformRandom:
      case TrafficPattern::Broadcast:
      case TrafficPattern::Hotspot:
      case TrafficPattern::Trace:
        break;
    }
    assert(false && "not a permutation pattern");
    return -1;
}

} // namespace orion::net
