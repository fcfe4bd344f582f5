/**
 * @file
 * k-ary n-cube topologies (torus and mesh).
 *
 * The paper's experiments use a 4x4 torus (Section 4.1, Figure 4) with
 * five physical bidirectional ports per router: one per direction per
 * dimension plus the local injection/ejection port.
 *
 * Port convention: dimension d, plus direction -> port 2d; minus
 * direction -> port 2d+1; local -> port 2n.
 */

#ifndef ORION_NET_TOPOLOGY_HH
#define ORION_NET_TOPOLOGY_HH

#include <cstdint>
#include <vector>

namespace orion::net {

/** Node coordinates in an n-dimensional grid. */
using Coord = std::vector<unsigned>;

/** A k-ary n-cube: torus when wrapped, mesh otherwise. */
class Topology
{
  public:
    /**
     * @param dims  radix per dimension, e.g. {4, 4} for a 4x4 grid
     * @param wrap  true for torus wraparound links, false for a mesh
     */
    Topology(std::vector<unsigned> dims, bool wrap);

    unsigned dimensions() const;
    unsigned radix(unsigned dim) const;
    bool wrapped() const { return wrap_; }
    unsigned numNodes() const { return numNodes_; }

    /** Ports per router, including the local port. */
    unsigned portsPerRouter() const { return 2 * dimensions() + 1; }
    /** Index of the local injection/ejection port. */
    unsigned localPort() const { return 2 * dimensions(); }
    /** Port for dimension @p dim, direction @p plus. */
    unsigned port(unsigned dim, bool plus) const;
    /** Dimension a network port belongs to. */
    unsigned portDimension(unsigned port) const;
    /** True if a network port points in the plus direction. */
    bool portIsPlus(unsigned port) const;

    /** Node id at coordinates @p c. */
    int nodeAt(const Coord& c) const;
    /** Coordinates of node @p node. */
    Coord coordsOf(int node) const;
    /** Coordinate of node @p node in dimension @p dim (allocation-free
     * coordsOf(node)[dim]). */
    unsigned coordOf(int node, unsigned dim) const;

    /**
     * Neighbor of @p node through @p port, or -1 if the port faces a
     * mesh edge. For a torus every network port has a neighbor.
     */
    int neighbor(int node, unsigned port) const;

    /** Hop count of minimal routing between two nodes. */
    unsigned minimalHops(int a, int b) const;

    /** Manhattan distance used by the paper's Figure 6 analysis
     * (identical to minimalHops on a torus). */
    unsigned manhattanDistance(int a, int b) const;

  private:
    std::vector<unsigned> dims_;
    bool wrap_;
    unsigned numNodes_;
};

} // namespace orion::net

#endif // ORION_NET_TOPOLOGY_HH
