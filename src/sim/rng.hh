/**
 * @file
 * Deterministic random number generation for reproducible simulations.
 *
 * A small xoshiro256** implementation: fast, high-quality, and — unlike
 * std::mt19937 uses through std::uniform_* distributions — guaranteed
 * to produce identical streams across standard libraries, which the
 * determinism tests rely on.
 */

#ifndef ORION_SIM_RNG_HH
#define ORION_SIM_RNG_HH

#include <cstdint>

namespace orion::sim {

/** xoshiro256** pseudo-random generator. */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) (bound > 0), unbiased. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high-quality bits into [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return uniform() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * Derive an independent per-point seed from a base seed and a 2-D
 * point index — the scheme behind sweep parallelism: every
 * (rate index, seed index) cell of a sweep gets its own RNG stream,
 * computed from the inputs alone, so a sweep point's results never
 * depend on which points ran before it (or concurrently with it).
 *
 * splitmix64-style finalization of the mixed triple; (0, 0) maps to
 * the base seed's own stream family but NOT to @p base itself —
 * derived streams are decorrelated from runs seeded with raw small
 * integers.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t rate_index,
                         std::uint64_t seed_index);

} // namespace orion::sim

#endif // ORION_SIM_RNG_HH
