/**
 * @file
 * The benchmark's workloads. Each is a closed loop: one caller runs
 * its simulations back to back, under uniform random traffic, with the
 * paper's measurement protocol (1000 warm-up cycles, a 10,000-packet
 * sample). README.md says why each workload exists and which layer it
 * stresses.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"

namespace perfbench {

/** One simulated network: a paper preset or the k16n2 variant. */
struct NetworkCase
{
    std::string name;
    orion::NetworkConfig config;
};

struct Workload
{
    std::string name;
    /** Kernel workloads run one serial Simulation per iteration;
     * sweep workloads run Sweep::overRates once per network. */
    bool sweep = false;
    std::vector<NetworkCase> networks;
    /** Injection rates, packets/cycle/node (one for a kernel). */
    std::vector<double> rates;
    /** The rate the traced run simulates directly, outside Sweep, to
     * attribute time and events to layers (a kernel's only rate). */
    std::size_t probeRate = 0;
};

/** The workload named @p name, or nullptr. */
const Workload* findWorkload(const std::string& name);

/** Every workload name: the kernels BENCHMARK.json lists, then
 * sweep-paper, which is run by hand. */
std::vector<std::string> workloadNames();

orion::TrafficConfig uniformTraffic(double rate);

/** The paper's protocol with the workload seed. */
orion::SimConfig protocol(std::uint64_t seed);

/** The seed Sweep::overRates gives the point at @p rate_index. */
std::uint64_t sweepPointSeed(std::uint64_t seed, std::size_t rate_index);

/** Name of one (network, rate) case in digests and diagnostics. */
std::string caseName(const NetworkCase& net, std::size_t rate_index);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
