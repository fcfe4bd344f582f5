/**
 * @file
 * Figure 5 reproduction: power-performance of on-chip 4x4 torus
 * networks under wormhole vs. virtual-channel flow control at varying
 * packet injection rates (paper Section 4.2).
 *
 *  - 5(a): average packet latency vs. injection rate for WH64, VC16,
 *    VC64, VC128
 *  - 5(b): total network power vs. injection rate
 *  - 5(c): VC64 average power breakdown (buffer / crossbar / arbiter /
 *    link)
 *
 * Expected shapes (checked in EXPERIMENTS.md): VC16 saturates above
 * WH64 (~0.15 vs lower); VC16 burns less power than WH64 until it
 * absorbs more traffic past WH64's saturation; VC64 ~ WH64 in power;
 * VC128 burns more power than VC64 with no throughput gain; power
 * flattens past saturation; arbiter share is negligible.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"

int
main()
{
    using namespace orion;
    using namespace orion::bench;

    const SimConfig sim = defaultSimConfig();
    TrafficConfig traffic;
    traffic.pattern = net::TrafficPattern::UniformRandom;

    struct Config
    {
        const char* name;
        NetworkConfig net;
    };
    const std::vector<Config> configs = {
        {"WH64", NetworkConfig::wh64()},
        {"VC16", NetworkConfig::vc16()},
        {"VC64", NetworkConfig::vc64()},
        {"VC128", NetworkConfig::vc128()},
    };

    const std::vector<double> rates = {0.01, 0.03, 0.05, 0.07, 0.09,
                                       0.11, 0.13, 0.15, 0.17, 0.20};

    std::printf("Figure 5 — on-chip 4x4 torus, 256-bit flits, 2 GHz, "
                "0.1 um, uniform random traffic\n");
    std::printf("(sample = %llu packets per point; latency '>cap' "
                "marks saturated runs)\n\n",
                static_cast<unsigned long long>(sim.samplePackets));

    // Run all configs over all rates, fanning each config's points
    // across ORION_JOBS workers (results are jobs-independent).
    const SweepOptions sweep_opts = defaultSweepOptions();
    std::vector<std::vector<SweepPoint>> results;
    std::vector<double> zero_load;
    for (const auto& c : configs) {
        results.push_back(
            Sweep::overRates(c.net, traffic, sim, rates, sweep_opts));
        zero_load.push_back(
            Sweep::zeroLoadProbe(c.net, traffic, sim).report.avgLatencyCycles);
    }

    // Figure 5(a): latency curves.
    report::Table fa;
    fa.title = "Fig 5(a) — avg packet latency (cycles) vs injection "
               "rate (pkts/cycle/node)";
    fa.headers = {"rate"};
    for (const auto& c : configs)
        fa.headers.push_back(c.name);
    for (std::size_t i = 0; i < rates.size(); ++i) {
        std::vector<std::string> row{rateLabel(rates[i])};
        for (std::size_t c = 0; c < configs.size(); ++c)
            row.push_back(latencyCell(results[c][i].report));
        fa.addRow(std::move(row));
    }
    std::printf("%s\n", report::formatTable(fa).c_str());

    // Saturation points per the paper's 2x zero-load definition.
    report::Table sat;
    sat.title = "saturation (latency > 2x zero-load)";
    sat.headers = {"config", "zero-load latency", "saturation rate"};
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const double s = Sweep::saturationRate(results[c], zero_load[c]);
        sat.addRow({configs[c].name, report::fmt(zero_load[c], 1),
                    s < 0 ? "> 0.20" : report::fmt(s, 3)});
    }
    std::printf("%s\n", report::formatTable(sat).c_str());

    // Figure 5(b): total network power curves.
    report::Table fb;
    fb.title = "Fig 5(b) — total network power (W) vs injection rate";
    fb.headers = {"rate"};
    for (const auto& c : configs)
        fb.headers.push_back(c.name);
    for (std::size_t i = 0; i < rates.size(); ++i) {
        std::vector<std::string> row{rateLabel(rates[i])};
        for (std::size_t c = 0; c < configs.size(); ++c)
            row.push_back(powerCell(results[c][i].report));
        fb.addRow(std::move(row));
    }
    std::printf("%s\n", report::formatTable(fb).c_str());

    // Accepted throughput (supplementary; makes the saturation
    // points visible as a flattening series).
    report::Table thr;
    thr.title = "accepted throughput (flits/node/cycle) vs injection "
                "rate";
    thr.headers = {"rate"};
    for (const auto& c : configs)
        thr.headers.push_back(c.name);
    for (std::size_t i = 0; i < rates.size(); ++i) {
        std::vector<std::string> row{rateLabel(rates[i])};
        for (std::size_t c = 0; c < configs.size(); ++c) {
            row.push_back(report::fmt(
                results[c][i].report.acceptedFlitsPerNodePerCycle,
                3));
        }
        thr.addRow(std::move(row));
    }
    std::printf("%s\n", report::formatTable(thr).c_str());

    // Figure 5(c): VC64 power breakdown vs rate.
    report::Table fc;
    fc.title = "Fig 5(c) — VC64 average power breakdown (W)";
    fc.headers = {"rate",    "buffer", "crossbar",
                  "arbiter", "link",   "arbiter %"};
    const auto& vc64 = results[2];
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto& r = vc64[i].report;
        fc.addRow({
            rateLabel(rates[i]),
            report::fmt(r.breakdownWatts.buffer, 2),
            report::fmt(r.breakdownWatts.crossbar, 2),
            report::fmt(r.breakdownWatts.arbiter, 4),
            report::fmt(r.breakdownWatts.link, 2),
            report::fmt(100.0 * r.breakdownWatts.arbiter /
                            r.networkPowerWatts,
                        2) + " %",
        });
    }
    std::printf("%s", report::formatTable(fc).c_str());
    return 0;
}
