#include "net/routing.hh"

#include <cassert>

namespace orion::net {

DorRouting::DorRouting(const Topology& topo,
                       std::vector<unsigned> dim_order,
                       router::DeadlockMode deadlock,
                       TieBreak tie_break)
    : topo_(topo),
      dimOrder_(std::move(dim_order)),
      deadlock_(deadlock),
      tieBreak_(tie_break)
{
    assert(dimOrder_.size() == topo.dimensions());
}

std::vector<unsigned>
DorRouting::defaultOrder(const Topology& topo)
{
    // Highest dimension first: {1, 0} in 2D, i.e. y before x.
    std::vector<unsigned> order;
    for (unsigned d = topo.dimensions(); d-- > 0;)
        order.push_back(d);
    return order;
}

std::vector<router::RouteHop>
DorRouting::route(int src, int dst, sim::Rng& rng) const
{
    std::vector<router::RouteHop> hops;
    routeInto(src, dst, rng, hops);
    return hops;
}

void
DorRouting::routeInto(int src, int dst, sim::Rng& rng,
                      std::vector<router::RouteHop>& hops) const
{
    assert(src != dst);
    hops.clear();

    // Coordinates are taken one dimension at a time: routing runs once
    // per packet and must not allocate.
    for (unsigned d : dimOrder_) {
        const unsigned k = topo_.radix(d);
        const unsigned from = topo_.coordOf(src, d);
        const unsigned to = topo_.coordOf(dst, d);
        if (from == to)
            continue;

        // Choose direction: minimal on a torus (random tie-break at
        // exactly half way), sign of the offset on a mesh.
        const unsigned fwd = (to + k - from) % k;
        const unsigned bwd = k - fwd;
        bool plus;
        if (!topo_.wrapped())
            plus = to > from;
        else if (fwd < bwd)
            plus = true;
        else if (bwd < fwd)
            plus = false;
        else if (tieBreak_ == TieBreak::PreferWrap)
            // Exactly one direction of a half-way tie crosses the
            // wraparound edge: + iff the path passes coordinate k-1.
            plus = from + fwd >= k;
        else
            plus = rng.chance(0.5);

        const unsigned steps = plus ? fwd : bwd;
        assert((plus ? from + steps : from + k - steps) % k == to);

        // Dateline class: 1 if this ring traversal uses the wraparound
        // edge (k-1 -> 0 going plus, 0 -> k-1 going minus).
        std::uint8_t vc_class = 0;
        if (deadlock_ == router::DeadlockMode::Dateline &&
            topo_.wrapped()) {
            const bool crosses = plus ? from + steps >= k : from < steps;
            vc_class = crosses ? 1 : 0;
        }

        const auto port =
            static_cast<std::uint8_t>(topo_.port(d, plus));
        for (unsigned s = 0; s < steps; ++s)
            hops.push_back(router::RouteHop{port, vc_class, s == 0});
    }

    // Ejection hop at the destination router.
    hops.push_back(router::RouteHop{
        static_cast<std::uint8_t>(topo_.localPort()), 0, false});
}

} // namespace orion::net
