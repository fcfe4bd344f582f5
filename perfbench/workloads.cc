#include "workloads.hh"

#include "core/sweep.hh"
#include "sim/rng.hh"

namespace perfbench {

namespace {

std::vector<Workload>
makeWorkloads()
{
    using orion::NetworkConfig;
    std::vector<Workload> all;

    Workload k16n2;
    k16n2.name = "kernel-k16n2";
    NetworkConfig big = NetworkConfig::vc16();
    big.net.dims = {16, 16};
    k16n2.networks = {{"k16n2", big}};
    k16n2.rates = {0.02};
    all.push_back(k16n2);

    Workload vc16;
    vc16.name = "kernel-vc16";
    vc16.networks = {{"vc16", NetworkConfig::vc16()}};
    vc16.rates = {0.06};
    all.push_back(vc16);

    // Figure 5 (on-chip) and Figure 7 (chip-to-chip) presets, one
    // Sweep::overRates call each, as bench/fig5_wh_vs_vc and
    // bench/fig7_cb_vs_xb make them. The top rates are past every
    // preset's saturation point.
    Workload sweep;
    sweep.name = "sweep-paper";
    sweep.sweep = true;
    sweep.networks = {{"wh64", NetworkConfig::wh64()},
                      {"vc16", NetworkConfig::vc16()},
                      {"vc64", NetworkConfig::vc64()},
                      {"vc128", NetworkConfig::vc128()},
                      {"xb", NetworkConfig::xb()},
                      {"cb", NetworkConfig::cb()}};
    sweep.rates = orion::Sweep::linspace(0.01, 0.20, 10);
    // Below every preset's saturation point, so the probe measures
    // per-hop cost rather than queueing.
    sweep.probeRate = 4;
    all.push_back(sweep);
    return all;
}

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = makeWorkloads();
    return all;
}

} // namespace

const Workload*
findWorkload(const std::string& name)
{
    for (const Workload& w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const Workload& w : workloads())
        names.push_back(w.name);
    return names;
}

orion::TrafficConfig
uniformTraffic(double rate)
{
    orion::TrafficConfig t;
    t.pattern = orion::net::TrafficPattern::UniformRandom;
    t.injectionRate = rate;
    return t;
}

orion::SimConfig
protocol(std::uint64_t seed)
{
    orion::SimConfig s;
    s.seed = seed;
    return s;
}

std::uint64_t
sweepPointSeed(std::uint64_t seed, std::size_t rate_index)
{
    return orion::sim::deriveSeed(seed, rate_index, 0);
}

std::string
caseName(const NetworkCase& net, std::size_t rate_index)
{
    return net.name + "@" + std::to_string(rate_index);
}

} // namespace perfbench
