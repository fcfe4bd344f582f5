#include "sim/rng.hh"

#include <cassert>

namespace orion::sim {

namespace {

std::uint64_t
splitmix64(std::uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto& s : s_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    assert(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t rate_index,
           std::uint64_t seed_index)
{
    // Feed the triple through the same splitmix64 stream the Rng
    // constructor uses for state expansion: advance a counter seeded
    // by `base`, folding each index in via multiplication by a large
    // odd constant so (1, 0) and (0, 1) land far apart.
    std::uint64_t x = base;
    (void)splitmix64(x);
    x ^= rate_index * 0x9e3779b97f4a7c15ULL;
    (void)splitmix64(x);
    x ^= seed_index * 0xbf58476d1ce4e5b9ULL;
    return splitmix64(x);
}

} // namespace orion::sim
