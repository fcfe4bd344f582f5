/**
 * @file
 * Correctness of the simulated outputs. Every run's report is reduced
 * to a digest and compared with the reference digests stored under
 * perfbench/reference/, recorded from the seed code for seeds 0 to
 * kReferenceSeeds - 1: counts must match exactly, mean latency and
 * network power to a relative 1e-12. A speed change must not change
 * simulated results.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <cstdint>
#include <map>
#include <string>

#include "core/simulation.hh"

namespace perfbench {

/**
 * Seeds with stored reference digests. The benchmark simulates the
 * given seed modulo this, so every seed it is given has a reference.
 */
constexpr std::uint64_t kReferenceSeeds = 64;

struct Digest
{
    std::uint64_t cycles = 0;
    /** Flits ejected in the measurement window. */
    std::uint64_t windowFlits = 0;
    /** Packets ejected over the whole run. */
    std::uint64_t packets = 0;
    std::uint64_t sampleInjected = 0;
    std::uint64_t sampleEjected = 0;
    double avgLatency = 0.0;
    double powerWatts = 0.0;

    /** Space-separated fields; the doubles as exact hexfloats. */
    std::string format() const;
};

Digest digestOf(const orion::Report& r, unsigned nodes);

/** Digests of one workload, keyed by "<seed> <case>". */
class Reference
{
  public:
    /** Load @p path; a missing file is an empty reference. */
    static Reference load(const std::string& path);

    const Digest* find(std::uint64_t seed, const std::string& cas) const;

  private:
    std::map<std::string, Digest> digests_;
};

/**
 * Checks each run of one benchmark invocation. A run is correct when
 * it completed with its whole sample delivered and its digest matches
 * the stored reference; a case with no stored digest is wrong. While
 * @p recording, there is no reference yet: only completion is checked,
 * and the digests are kept to be printed.
 */
class Checker
{
  public:
    Checker(Reference ref, std::uint64_t seed, bool recording);

    /** Check one run; false (with a diagnostic on stderr) if wrong. */
    bool check(const std::string& cas, const orion::Report& r,
               unsigned nodes);

    /** The first digest seen for each case. */
    const std::map<std::string, Digest>& digests() const
    {
        return first_;
    }

    /** FNV-1a over the first digest of every case, in case order: it
     * changes when the seed reaches the simulations. */
    std::uint64_t fingerprint() const;

  private:
    bool fail(const std::string& cas, const std::string& why);

    Reference ref_;
    std::uint64_t seed_;
    bool recording_;
    std::map<std::string, Digest> first_;
    unsigned reported_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
