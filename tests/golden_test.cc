/**
 * @file
 * Golden report corpus: exact digests of small runs across every
 * preset, traffic pattern and fault scenario, compared bit for bit
 * against tests/golden/reports.txt.
 *
 * A digest line holds the run's integer counts (cycles, flits and
 * packets ejected, flits forwarded, sample counts, event counts, fault
 * tallies) and its doubles as C99 hexfloats (core::exactDouble: mean
 * and p99 latency, total and per-class power), so any change to
 * arbitration, routing, power accounting or RNG streams shows up here.
 *
 * The corpus records core::kDeterminismEpoch. A code change that is
 * meant to alter results regenerates the corpus and bumps the epoch in
 * the same diff:
 *
 *     ORION_GOLDEN_OUT=tests/golden/reports.txt ./build/tests/golden_test
 *
 * writes the fresh corpus (under the current epoch) to that path; the
 * comparison below still runs against the committed file. When the
 * change is meant to move results only in the last bits, capture the
 * old build's corpus the same way and compare the two with
 *
 *     python3 tools/golden_diff.py OLD NEW --rel 1e-12
 *
 * which fails unless the case names and every integer field are
 * identical and every double is within the tolerance, and prints the
 * worst field.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/config.hh"
#include "core/simulation.hh"
#include "net/topology.hh"

#ifndef ORION_GOLDEN_FILE
#error "ORION_GOLDEN_FILE must name tests/golden/reports.txt"
#endif

namespace {

using namespace orion;

struct GoldenCase
{
    std::string name;
    NetworkConfig net;
    TrafficConfig traffic;
    SimConfig sim;
};

/** The measurement protocol every case starts from: short warm-up and
 * a small sample, so the whole corpus runs in a few seconds. */
SimConfig
smallRun()
{
    SimConfig s;
    s.warmupCycles = 300;
    s.samplePackets = 1000;
    s.maxCycles = 60000;
    return s;
}

enum class Scenario
{
    Clean,
    LinkBer,
    OutageReroute,
    DeadlockDetect,
};

const char*
scenarioName(Scenario s)
{
    switch (s) {
      case Scenario::Clean: return "clean";
      case Scenario::LinkBer: return "ber";
      case Scenario::OutageReroute: return "outage";
      case Scenario::DeadlockDetect: return "deadlock";
    }
    return "?";
}

void
applyScenario(Scenario scenario, SimConfig& s)
{
    switch (scenario) {
      case Scenario::Clean:
        break;
      case Scenario::LinkBer:
        s.fault.linkBitErrorRate = 2e-5;
        break;
      case Scenario::OutageReroute:
        s.fault.outages.push_back({.start = 400, .end = 900, .link = -1});
        s.rerouteOnOutage = true;
        break;
      case Scenario::DeadlockDetect:
        s.deadlockDetect.enabled = true;
        s.deadlockDetect.probeCycles = 32;
        s.deadlockDetect.thresholdCycles = 256;
        break;
    }
}

std::vector<GoldenCase>
goldenCases()
{
    const std::vector<std::pair<std::string,
                                std::function<NetworkConfig()>>>
        presets = {
            {"wh64", NetworkConfig::wh64}, {"vc16", NetworkConfig::vc16},
            {"vc64", NetworkConfig::vc64}, {"vc128", NetworkConfig::vc128},
            {"xb", NetworkConfig::xb},     {"cb", NetworkConfig::cb},
        };
    std::vector<GoldenCase> cases;
    for (const auto& [preset, make] : presets) {
        for (const bool broadcast : {false, true}) {
            for (const Scenario sc :
                 {Scenario::Clean, Scenario::LinkBer,
                  Scenario::OutageReroute, Scenario::DeadlockDetect}) {
                GoldenCase c{preset + (broadcast ? "/broadcast/"
                                                 : "/uniform/") +
                                 scenarioName(sc),
                             make(), {}, smallRun()};
                if (broadcast) {
                    c.traffic.pattern = net::TrafficPattern::Broadcast;
                    c.traffic.injectionRate = 0.2;
                } else {
                    c.traffic.injectionRate = 0.08;
                }
                applyScenario(sc, c.sim);
                cases.push_back(std::move(c));
            }
        }
    }

    const auto uniform = [](std::string name, NetworkConfig net,
                            double rate) {
        GoldenCase c{std::move(name), std::move(net), {}, smallRun()};
        c.traffic.injectionRate = rate;
        return c;
    };

    // Near saturation, where every allocator sees several contenders.
    for (const auto& [preset, make] : presets) {
        cases.push_back(
            uniform(preset + "/uniform/heavy", make(), 0.14));
    }

    // Speculative VA+SA pipeline.
    NetworkConfig spec = NetworkConfig::vc16();
    spec.net.speculative = true;
    cases.push_back(uniform("vc16-speculative/uniform/clean", spec, 0.08));
    NetworkConfig spec64 = NetworkConfig::vc64();
    spec64.net.speculative = true;
    cases.push_back(
        uniform("vc64-speculative/uniform/clean", spec64, 0.08));

    // The other behavioural arbiter kinds, on VC allocation (vc64),
    // switch allocation (wh64) and the central buffer's ports (cb).
    for (const auto& [kind, label] :
         {std::pair{router::ArbiterKind::RoundRobin, "rr"},
          std::pair{router::ArbiterKind::Queuing, "queuing"}}) {
        for (const auto& [preset, make] :
             {std::pair<std::string, std::function<NetworkConfig()>>{
                  "vc64", NetworkConfig::vc64},
              {"wh64", NetworkConfig::wh64},
              {"cb", NetworkConfig::cb}}) {
            NetworkConfig net = make();
            net.net.arbiterKind = kind;
            cases.push_back(uniform(preset + "-" + label + "/uniform/clean",
                                    net, 0.08));
        }
    }

    // More than 64 VA requesters per output VC: a 3-D torus has 7
    // ports, so (ports - 1) * vcs = 96 (dateline) and 72 (bubble).
    NetworkConfig wide = NetworkConfig::vc16();
    wide.net.dims = {3, 3, 3};
    wide.net.vcs = 16;
    wide.net.bufferDepth = 4;
    cases.push_back(uniform("vc3d-16vc-dateline/uniform/clean", wide, 0.05));
    NetworkConfig wide_bubble = NetworkConfig::vc64();
    wide_bubble.net.dims = {3, 3, 3};
    wide_bubble.net.vcs = 12;
    wide_bubble.net.bufferDepth = 5;
    cases.push_back(
        uniform("vc3d-12vc-bubble/uniform/clean", wide_bubble, 0.05));

    // A ring with no deadlock avoidance under heavy load: the
    // detector finds real wait-for cycles and poisons worms.
    NetworkConfig ring = NetworkConfig::vc16();
    ring.net.dims = {4};
    ring.net.vcs = 1;
    ring.net.bufferDepth = 4;
    ring.net.deadlock = router::DeadlockMode::None;
    GoldenCase wedge = uniform("ring-none/uniform/deadlock", ring, 0.3);
    applyScenario(Scenario::DeadlockDetect, wedge.sim);
    cases.push_back(std::move(wedge));

    // Scheduled output-port stalls hold the switch and read latches.
    for (const auto& [preset, make] :
         {std::pair<std::string, std::function<NetworkConfig()>>{
              "vc16", NetworkConfig::vc16},
          {"cb", NetworkConfig::cb}}) {
        GoldenCase c = uniform(preset + "/uniform/stall", make(), 0.05);
        c.sim.fault.stalls.push_back(
            {.node = 5, .port = 0, .start = 400, .end = 600});
        c.sim.fault.stalls.push_back(
            {.node = 6, .port = 4, .start = 500, .end = 800});
        cases.push_back(std::move(c));
    }

    // 512-bit flits are wider than BitVec's inline storage: these pin
    // its heap path, the 8-word link CRC and bit flips past word 3.
    NetworkConfig wide_flits = NetworkConfig::vc16();
    wide_flits.net.flitBits = 512;
    cases.push_back(uniform("vc16-512b/uniform/clean", wide_flits, 0.08));
    GoldenCase wide_ber = uniform("vc16-512b/uniform/ber", wide_flits, 0.08);
    applyScenario(Scenario::LinkBer, wide_ber.sim);
    cases.push_back(std::move(wide_ber));
    return cases;
}

/** One case's digest line (without the case name). */
std::string
digest(const GoldenCase& c)
{
    Simulation s(c.net, c.traffic, c.sim);
    const Report r = s.run();

    std::uint64_t flits_ejected = 0;
    std::uint64_t packets_ejected = 0;
    std::uint64_t flits_forwarded = 0;
    const int nodes = s.network().topology().numNodes();
    for (int i = 0; i < nodes; ++i) {
        flits_ejected += s.network().endpoint(i).flitsEjectedTotal();
        packets_ejected += s.network().endpoint(i).packetsEjected();
        flits_forwarded += s.network().router(i).flitsForwarded();
    }

    using core::exactDouble;
    std::ostringstream out;
    out << "tc=" << r.totalCycles << " co=" << r.completed
        << " fe=" << flits_ejected << " pe=" << packets_ejected
        << " ff=" << flits_forwarded << " sj=" << r.sampleInjected
        << " se=" << r.sampleEjected
        << " al=" << exactDouble(r.avgLatencyCycles)
        << " q99=" << exactDouble(r.p99LatencyCycles)
        << " pw=" << exactDouble(r.networkPowerWatts)
        << " b0=" << exactDouble(r.breakdownWatts.buffer)
        << " b1=" << exactDouble(r.breakdownWatts.crossbar)
        << " b2=" << exactDouble(r.breakdownWatts.arbiter)
        << " b3=" << exactDouble(r.breakdownWatts.link)
        << " b4=" << exactDouble(r.breakdownWatts.centralBuffer)
        << " fc=" << r.flitsCorrupted << " fd=" << r.flitsDiscarded
        << " pr=" << r.packetsRetransmitted << " pl=" << r.packetsLost
        << " pu=" << r.packetsUnreachable << " rr=" << r.reroutes
        << " dd=" << r.deadlocksDetected << " fh=" << r.faultLogHash
        << " ev=";
    for (std::size_t i = 0; i < r.eventCounts.size(); ++i)
        out << (i ? "," : "") << r.eventCounts[i];
    return out.str();
}

struct Corpus
{
    unsigned epoch = 0;
    bool sawEpoch = false;
    /** Case name -> digest. */
    std::map<std::string, std::string> lines;
};

/** Parse the corpus: "epoch N", then "name digest" lines; '#' lines
 * are comments. */
Corpus
loadCorpus()
{
    Corpus corpus;
    std::ifstream in(ORION_GOLDEN_FILE);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t space = line.find(' ');
        if (space == std::string::npos)
            continue;
        const std::string key = line.substr(0, space);
        const std::string rest = line.substr(space + 1);
        if (key == "epoch") {
            corpus.epoch = static_cast<unsigned>(std::stoul(rest));
            corpus.sawEpoch = true;
        } else {
            corpus.lines[key] = rest;
        }
    }
    return corpus;
}

TEST(GoldenCorpus, RecordsTheCurrentDeterminismEpoch)
{
    const Corpus corpus = loadCorpus();
    ASSERT_TRUE(corpus.sawEpoch) << "no corpus at " ORION_GOLDEN_FILE;
    EXPECT_EQ(corpus.epoch, core::kDeterminismEpoch)
        << "kDeterminismEpoch changed: regenerate the corpus in the "
           "same diff (see the header of tests/golden_test.cc)";
}

TEST(GoldenCorpus, EveryReportMatchesBitForBit)
{
    const Corpus corpus = loadCorpus();
    const std::vector<GoldenCase> cases = goldenCases();

    std::ostringstream fresh;
    fresh << "# Golden report digests; regenerate only with a "
             "kDeterminismEpoch bump.\n"
          << "epoch " << core::kDeterminismEpoch << "\n";
    for (const GoldenCase& c : cases) {
        const std::string got = digest(c);
        fresh << c.name << ' ' << got << '\n';
        const auto it = corpus.lines.find(c.name);
        if (it == corpus.lines.end()) {
            ADD_FAILURE() << "no golden digest for " << c.name;
            continue;
        }
        EXPECT_EQ(got, it->second) << "report of " << c.name
                                   << " differs from the corpus";
    }
    EXPECT_EQ(corpus.lines.size(), cases.size())
        << "corpus holds digests for cases no longer run";

    if (const char* out = std::getenv("ORION_GOLDEN_OUT")) {
        std::ofstream f(out);
        f << fresh.str();
        ASSERT_TRUE(f.good()) << "cannot write " << out;
    }
}

} // namespace
