#include "net/topology.hh"

#include <algorithm>
#include <cassert>

namespace orion::net {

Topology::Topology(std::vector<unsigned> dims, bool wrap)
    : dims_(std::move(dims)), wrap_(wrap)
{
    assert(!dims_.empty());
    numNodes_ = 1;
    for (unsigned k : dims_) {
        assert(k >= 2);
        numNodes_ *= k;
    }
}

unsigned
Topology::dimensions() const
{
    return static_cast<unsigned>(dims_.size());
}

unsigned
Topology::radix(unsigned dim) const
{
    assert(dim < dims_.size());
    return dims_[dim];
}

unsigned
Topology::port(unsigned dim, bool plus) const
{
    assert(dim < dims_.size());
    return 2 * dim + (plus ? 0 : 1);
}

unsigned
Topology::portDimension(unsigned port) const
{
    assert(port < localPort());
    return port / 2;
}

bool
Topology::portIsPlus(unsigned port) const
{
    assert(port < localPort());
    return port % 2 == 0;
}

int
Topology::nodeAt(const Coord& c) const
{
    assert(c.size() == dims_.size());
    int id = 0;
    // Row-major with dimension 0 fastest: id = x + k0*(y + k1*(z...)).
    for (unsigned d = dimensions(); d-- > 0;) {
        assert(c[d] < dims_[d]);
        id = id * static_cast<int>(dims_[d]) + static_cast<int>(c[d]);
    }
    return id;
}

Coord
Topology::coordsOf(int node) const
{
    assert(node >= 0 && static_cast<unsigned>(node) < numNodes_);
    Coord c(dims_.size());
    auto rem = static_cast<unsigned>(node);
    for (unsigned d = 0; d < dimensions(); ++d) {
        c[d] = rem % dims_[d];
        rem /= dims_[d];
    }
    return c;
}

unsigned
Topology::coordOf(int node, unsigned dim) const
{
    assert(node >= 0 && static_cast<unsigned>(node) < numNodes_);
    assert(dim < dims_.size());
    auto rem = static_cast<unsigned>(node);
    for (unsigned d = 0; d < dim; ++d)
        rem /= dims_[d];
    return rem % dims_[dim];
}

int
Topology::neighbor(int node, unsigned port) const
{
    assert(port < localPort());
    const unsigned d = portDimension(port);
    const unsigned k = dims_[d];
    Coord c = coordsOf(node);
    if (portIsPlus(port)) {
        if (c[d] + 1 == k) {
            if (!wrap_)
                return -1;
            c[d] = 0;
        } else {
            ++c[d];
        }
    } else {
        if (c[d] == 0) {
            if (!wrap_)
                return -1;
            c[d] = k - 1;
        } else {
            --c[d];
        }
    }
    return nodeAt(c);
}

unsigned
Topology::minimalHops(int a, int b) const
{
    const Coord ca = coordsOf(a);
    const Coord cb = coordsOf(b);
    unsigned hops = 0;
    for (unsigned d = 0; d < dimensions(); ++d) {
        const unsigned k = dims_[d];
        const unsigned fwd = (cb[d] + k - ca[d]) % k;
        if (wrap_)
            hops += std::min(fwd, k - fwd);
        else
            hops += ca[d] > cb[d] ? ca[d] - cb[d] : cb[d] - ca[d];
    }
    return hops;
}

unsigned
Topology::manhattanDistance(int a, int b) const
{
    return minimalHops(a, b);
}

} // namespace orion::net
