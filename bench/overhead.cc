/**
 * @file
 * Mode-overhead harness: times one serial injection-rate sweep of the
 * paper's 4x4 torus (vc16, 4 rates from 0.02 to 0.08) in six modes
 * and checks that every mode reports exactly what the default does.
 *
 *  - default:      the default (cheap) invariant-check level
 *  - checks_off:   check level off
 *  - paranoid:     check level paranoid
 *  - sampled_1k:   the windowed telemetry sampler every 1000 cycles
 *  - traced:       the sampler plus flit tracing
 *  - cancel_armed: every point runs under an armed CancelToken whose
 *                  deadline (one day) never fires
 *
 * The modes run interleaved, one sweep each per round, for a fixed
 * number of rounds, and each mode keeps its fastest sweep: on a shared
 * host the minimum is the least noisy estimate of a mode's cost.
 * stdout gets one JSON line with each mode's best wall seconds;
 * tools/check.sh --overhead-only gates the ratios between them.
 *
 * Exit status 1 when any mode's reports differ from the default
 * mode's in any field the checkpoint journal records.
 *
 * Environment: ORION_SAMPLE packets per point (default 2000), plus
 * bench_util's ORION_MAX_CYCLES and ORION_SEED.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "base/check.hh"
#include "base/json.hh"
#include "bench_util.hh"
#include "core/checkpoint.hh"

namespace {

using namespace orion;
using namespace orion::bench;

constexpr unsigned kRounds = 10;

struct Mode
{
    const char* name;
    core::CheckLevel level;
    SimConfig sim;
    SweepOptions opts = SweepOptions::withJobs(1);
    double bestSeconds = 0.0;
};

/** The sweep's cells, exactly (one journal line per point). */
std::string
digest(const std::vector<SweepPoint>& points)
{
    std::string d;
    for (std::size_t i = 0; i < points.size(); ++i)
        d += core::serializeEntry({i, 0, points[i]}) + '\n';
    return d;
}

} // namespace

int
main()
{
    SimConfig sim = defaultSimConfig();
    sim.samplePackets = envU64("ORION_SAMPLE", 2000);
    const TrafficConfig traffic; // uniform random
    const NetworkConfig net = NetworkConfig::vc16();
    const std::vector<double> rates = Sweep::linspace(0.02, 0.08, 4);

    using core::CheckLevel;
    std::vector<Mode> modes = {
        {"default", CheckLevel::Cheap, sim},
        {"checks_off", CheckLevel::Off, sim},
        {"paranoid", CheckLevel::Paranoid, sim},
        {"sampled_1k", CheckLevel::Cheap, sim},
        {"traced", CheckLevel::Cheap, sim},
        {"cancel_armed", CheckLevel::Cheap, sim},
    };
    modes[3].sim.telemetry.sampleInterval = 1000;
    modes[4].sim.telemetry.sampleInterval = 1000;
    modes[4].sim.telemetry.traceEnabled = true;
    modes[5].opts.pointTimeoutSeconds = 86400.0;

    std::string reference;
    bool identical = true;
    for (unsigned round = 0; round < kRounds; ++round) {
        for (Mode& m : modes) {
            core::setCheckLevel(m.level);
            const auto start = std::chrono::steady_clock::now();
            const std::vector<SweepPoint> points =
                Sweep::overRates(net, traffic, m.sim, rates, m.opts);
            const std::chrono::duration<double> took =
                std::chrono::steady_clock::now() - start;
            if (round == 0 || took.count() < m.bestSeconds)
                m.bestSeconds = took.count();

            const std::string d = digest(points);
            if (reference.empty()) {
                reference = d;
            } else if (d != reference) {
                std::fprintf(stderr,
                             "overhead: %s reports differ from the "
                             "default mode's (round %u)\n",
                             m.name, round);
                identical = false;
            }
        }
    }

    report::JsonWriter w;
    w.beginObject().field("benchmark", "overhead").field("network", "vc16");
    w.field("rates", rates.size()).field("sample_packets", sim.samplePackets);
    w.field("rounds", kRounds).key("wall_s").beginObject();
    for (const Mode& m : modes)
        w.field(m.name, m.bestSeconds);
    w.endObject().field("identical", identical).endObject();
    std::fputs(w.takeLine().c_str(), stdout);
    return identical ? 0 : 1;
}
