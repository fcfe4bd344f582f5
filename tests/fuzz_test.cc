/**
 * @file
 * Randomized configuration torture tests: pseudo-random (but
 * deterministic) network configurations driven with random traffic,
 * checking the invariants that must hold for *every* legal
 * configuration — delivery, conservation, watchdog silence below
 * saturation, and energy/event consistency. Plus file-format torture:
 * checkpoint journals under mutation and the live run manifest under
 * concurrent writers.
 */

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "check_level_guard.hh"
#include "core/checkpoint.hh"
#include "core/config.hh"
#include "core/progress.hh"
#include "core/simulation.hh"
#include "json_validator.hh"
#include "sim/rng.hh"

namespace {

using namespace orion;

/** Build a random-but-valid configuration from @p seed. */
NetworkConfig
randomConfig(std::uint64_t seed)
{
    sim::Rng rng(seed);
    NetworkConfig c = NetworkConfig::vc16();

    // Topology: 2-D, radices 2-4 (kept small so low rates still load
    // the network within the test budget).
    const unsigned kx = 2 + static_cast<unsigned>(rng.below(3));
    const unsigned ky = 2 + static_cast<unsigned>(rng.below(3));
    c.net.dims = {kx, ky};
    c.net.wrap = rng.chance(0.7);

    c.net.packetLength = 1 + static_cast<unsigned>(rng.below(6));
    c.net.flitBits = 16u << rng.below(3); // 16/32/64

    const unsigned kind = static_cast<unsigned>(rng.below(3));
    if (kind == 0) {
        c.net.routerKind = net::RouterKind::Wormhole;
        c.net.vcs = 1;
        c.net.bufferDepth =
            2 * c.net.packetLength +
            static_cast<unsigned>(rng.below(16));
        c.net.deadlock = c.net.wrap ? router::DeadlockMode::Bubble
                                    : router::DeadlockMode::None;
    } else if (kind == 1) {
        c.net.routerKind = net::RouterKind::VirtualChannel;
        c.net.vcs = 2u << rng.below(3); // 2/4/8
        if (rng.chance(0.5)) {
            c.net.deadlock = router::DeadlockMode::Dateline;
            c.net.bufferDepth =
                1 + static_cast<unsigned>(rng.below(12));
        } else {
            c.net.deadlock = router::DeadlockMode::Bubble;
            c.net.bufferDepth =
                c.net.packetLength +
                static_cast<unsigned>(rng.below(8));
        }
        if (!c.net.wrap)
            c.net.deadlock = router::DeadlockMode::None;
        c.net.speculative = rng.chance(0.5);
    } else {
        c.net.routerKind = net::RouterKind::CentralBuffer;
        c.net.vcs = 1;
        c.net.bufferDepth =
            2 * c.net.packetLength +
            static_cast<unsigned>(rng.below(16));
        c.net.deadlock = c.net.wrap ? router::DeadlockMode::Bubble
                                    : router::DeadlockMode::None;
        const unsigned cap =
            4 * (c.net.packetLength + 2 +
                 static_cast<unsigned>(rng.below(32)));
        c.net.centralBuffer = router::CentralBufferRouterParams{
            cap, 1 + static_cast<unsigned>(rng.below(2)),
            1 + static_cast<unsigned>(rng.below(2)), 2};
    }

    const unsigned arb = static_cast<unsigned>(rng.below(3));
    c.net.arbiterKind = arb == 0   ? router::ArbiterKind::Matrix
                        : arb == 1 ? router::ArbiterKind::RoundRobin
                                   : router::ArbiterKind::Queuing;
    c.net.injection = rng.chance(0.5) ? net::InjectionPolicy::SingleVc
                                      : net::InjectionPolicy::SpreadVcs;
    c.net.tieBreak = rng.chance(0.5) ? net::TieBreak::Random
                                     : net::TieBreak::PreferWrap;
    return c;
}

class ConfigFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ConfigFuzz, InvariantsHoldOnRandomConfig)
{
    // Fuzz at the paranoid check level: every random configuration is
    // audited for flit conservation, credit accounting, and energy
    // sanity at frequent intervals during its run (net/audit.hh). A
    // run that breaks an invariant throws core::CheckFailure and fails
    // the test with a diagnostic naming the node/port.
    const test::CheckLevelGuard paranoid(core::CheckLevel::Paranoid);

    const std::uint64_t seed = GetParam();
    const NetworkConfig cfg = randomConfig(seed);
    ASSERT_NO_THROW(cfg.validate()) << "fuzz seed " << seed;

    TrafficConfig traffic;
    traffic.injectionRate = 0.02; // safely below any saturation
    SimConfig sim;
    sim.samplePackets = 400;
    sim.maxCycles = 120000;
    sim.seed = seed;
    sim.auditCycles = 256;

    Simulation s(cfg, traffic, sim);
    const Report r = s.run();

    EXPECT_TRUE(r.completed) << "fuzz seed " << seed << ": "
                             << r.checkFailureDiagnostic;
    EXPECT_FALSE(r.deadlockSuspected) << "fuzz seed " << seed;
    EXPECT_EQ(r.sampleEjected, 400u) << "fuzz seed " << seed;

    // Conservation: nothing delivered that wasn't injected, nothing
    // lost beyond what's still in flight.
    auto& net = s.network();
    EXPECT_LE(net.totalEjected(), net.totalInjected());

    // Latency sane: at least the minimal pipeline time, far below the
    // cycle cap.
    EXPECT_GT(r.avgLatencyCycles, 3.0);
    EXPECT_LT(r.avgLatencyCycles, 500.0);

    // Power accounting consistent: positive, and the breakdown sums
    // to the total.
    EXPECT_GT(r.networkPowerWatts, 0.0);
    EXPECT_NEAR(r.breakdownWatts.total(), r.networkPowerWatts,
                1e-9 * r.networkPowerWatts);

    // Buffered flits all came through buffers: reads never exceed
    // writes.
    const auto writes = r.eventCounts[static_cast<unsigned>(
        sim::EventType::BufferWrite)];
    const auto reads = r.eventCounts[static_cast<unsigned>(
        sim::EventType::BufferRead)];
    EXPECT_LE(reads, writes + 64);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

// --- checkpoint journal corruption fuzzing ----------------------------
//
// Whatever a crash, a bad disk, or a hostile editor does to a journal
// file, loadCheckpoint must end in exactly one of two ways: a clean
// load (possibly with the torn final line dropped) or a structured
// CheckpointError. Never UB, never a crash, never silently wrong
// entries.

namespace journal_fuzz {

std::string
validJournal(std::uint64_t fingerprint, unsigned entries)
{
    std::string out = core::checkpointHeader(fingerprint) + "\n";
    core::CheckpointEntry e;
    Report& r = e.point.report;
    r.avgLatencyCycles = 18.19;
    r.sampleInjected = 200;
    r.sampleEjected = 200;
    r.completed = true;
    r.stopReason = StopReason::Completed;
    r.nodePowerWatts = {0.25, 1.0 / 3.0};
    for (unsigned i = 0; i < entries; ++i) {
        e.rateIndex = i;
        r.offeredLoad = 0.01 * (i + 1);
        out += core::serializeEntry(e) + "\n";
    }
    return out;
}

void
writeJournal(const std::string& path, const std::string& content)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << content;
}

} // namespace journal_fuzz

class JournalFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(JournalFuzz, MutatedJournalLoadsCleanlyOrThrowsStructured)
{
    const std::uint64_t seed = GetParam();
    sim::Rng rng(seed * 7919 + 13);
    const std::uint64_t fp = 0xfeedfacecafebeefULL;
    const std::string valid = journal_fuzz::validJournal(fp, 5);
    const std::string path = testing::TempDir() +
                             "orion_journal_fuzz_" +
                             std::to_string(seed);

    for (unsigned round = 0; round < 40; ++round) {
        std::string mutated = valid;
        switch (rng.below(3)) {
        case 0: // truncate anywhere (the kill-at-random-byte case)
            mutated.resize(rng.below(mutated.size() + 1));
            break;
        case 1: { // flip a random bit
            if (!mutated.empty()) {
                const std::size_t i = static_cast<std::size_t>(
                    rng.below(mutated.size()));
                mutated[i] = static_cast<char>(
                    mutated[i] ^ (1u << rng.below(8)));
            }
            break;
        }
        default: { // splice random garbage into a random offset
            const std::size_t i = static_cast<std::size_t>(
                rng.below(mutated.size() + 1));
            std::string junk;
            for (unsigned k = 0; k < 1 + rng.below(12); ++k)
                junk.push_back(
                    static_cast<char>(32 + rng.below(95)));
            mutated.insert(i, junk);
            break;
        }
        }
        journal_fuzz::writeJournal(path, mutated);
        try {
            const core::CheckpointLoad load =
                core::loadCheckpoint(path, fp);
            // A clean load must only ever contain entries that exist
            // in the pristine journal, byte-faithfully: coordinates
            // in range and reports intact.
            EXPECT_LE(load.entries.size(), 5u);
            for (const auto& e : load.entries) {
                EXPECT_LT(e.rateIndex, 5u);
                EXPECT_EQ(e.point.report.sampleEjected, 200u);
                EXPECT_EQ(e.point.report.offeredLoad,
                          0.01 * (static_cast<double>(e.rateIndex) +
                                  1.0));
            }
        } catch (const core::CheckpointError&) {
            // Structured rejection is the other acceptable outcome.
        }
    }
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- run manifest atomic-replacement fuzzing ---------------------------
//
// The live run manifest is replaced via tmp + rename while several
// threads complete cells and a background refresher runs on a
// millisecond period. A concurrent reader (tools/orion_status.py's
// position) must never observe a torn file: every non-empty read
// parses as a complete orion-run-manifest-v3 JSON document.

TEST(ManifestFuzz, ConcurrentWritersNeverTearTheFile)
{
    const std::string path =
        testing::TempDir() + "orion_manifest_fuzz.json";
    std::remove(path.c_str());

    constexpr unsigned kWriters = 4;
    constexpr unsigned kCellsPerWriter = 64;

    core::ProgressTracker::Options po;
    po.manifestPath = path;
    po.manifest = core::RunManifest::begin("fuzz_test");
    po.manifest.pointsTotal = kWriters * kCellsPerWriter;
    po.manifest.jobs = kWriters;
    po.intervalSeconds = 0.001; // refresher hammers too
    core::ProgressTracker tracker(po);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> torn{0};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            std::ifstream in(path, std::ios::binary);
            if (!in)
                continue;
            std::ostringstream ss;
            ss << in.rdbuf();
            const std::string snapshot = ss.str();
            if (snapshot.empty()) {
                // An empty read would itself be a torn observation:
                // rename never exposes a half-written file.
                ++torn;
                continue;
            }
            ++reads;
            test::JsonValidator v(snapshot);
            if (!v.valid() ||
                snapshot.find("orion-run-manifest-v3") ==
                    std::string::npos)
                ++torn;
        }
    });

    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
        writers.emplace_back([&tracker, w] {
            for (unsigned i = 0; i < kCellsPerWriter; ++i) {
                core::ProgressScope scope(&tracker, i, w);
                if (std::atomic<std::uint64_t>* c = scope.cycles())
                    c->store(i, std::memory_order_relaxed);
                scope.end((i % 7) == 0, 0.001);
            }
        });
    }
    for (std::thread& t : writers)
        t.join();
    tracker.finish("ok");
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    const core::RunManifest m = tracker.snapshot();
    EXPECT_EQ(m.pointsCompleted + m.pointsFailed,
              std::uint64_t{kWriters} * kCellsPerWriter);
    EXPECT_GT(reads.load(), 0u)
        << "the final manifest alone guarantees one read";
    EXPECT_EQ(torn.load(), 0u)
        << "a reader observed a torn/empty manifest";

    const std::string final_doc = [&] {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }();
    test::JsonValidator v(final_doc);
    ASSERT_TRUE(v.valid()) << final_doc;
    EXPECT_NE(final_doc.find("\"finished\":true"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
