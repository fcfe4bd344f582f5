/**
 * @file
 * Tests for the run-level observability layer: the structured logger,
 * run manifests, the sweep progress tracker / heartbeat file, phase
 * profiling and per-point resource accounting. The key guarantee
 * throughout is the observability contract: attaching any of these
 * never changes simulation results — reports stay bit-identical with
 * telemetry on or off.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/profile.hh"
#include "core/checkpoint.hh"
#include "core/config.hh"
#include "core/log.hh"
#include "core/manifest.hh"
#include "core/progress.hh"
#include "core/report.hh"
#include "core/simulation.hh"
#include "core/sweep.hh"
#include "json_validator.hh"

namespace {

using namespace orion;
namespace log = core::log;

std::string
tempPath(const std::string& name)
{
    return testing::TempDir() + name;
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TrafficConfig
uniform(double rate)
{
    TrafficConfig t;
    t.injectionRate = rate;
    return t;
}

SimConfig
smallRun()
{
    SimConfig s;
    s.samplePackets = 300;
    s.maxCycles = 100000;
    return s;
}

// --- Logger ---------------------------------------------------------

TEST(Log, LevelNamesRoundTrip)
{
    for (log::Level l : {log::Level::Debug, log::Level::Info,
                         log::Level::Warn, log::Level::Error}) {
        log::Level parsed = log::Level::Off;
        ASSERT_TRUE(log::parseLevel(log::levelName(l), parsed));
        EXPECT_EQ(parsed, l);
    }
    log::Level out = log::Level::Warn;
    EXPECT_FALSE(log::parseLevel("verbose", out));
    EXPECT_EQ(out, log::Level::Warn) << "junk must leave out unchanged";
    EXPECT_FALSE(log::parseLevel("", out));
}

TEST(Log, DisabledByDefault)
{
    log::Logger::instance().reset();
    EXPECT_FALSE(log::enabled(log::Level::Error));
    // No sink: event() must be a cheap no-op, not a crash.
    log::event(log::Level::Info, "test.noop", {log::u64("x", 1)});
}

TEST(Log, SinkEmitsValidJsonLines)
{
    const std::string path = tempPath("observe_log.jsonl");
    std::remove(path.c_str());
    log::configure(path, log::Level::Info);
    EXPECT_TRUE(log::enabled(log::Level::Info));
    EXPECT_FALSE(log::enabled(log::Level::Debug));

    log::event(log::Level::Info, "test.event",
               {log::str("text", "quote \" backslash \\ tab \t"),
                log::num("ratio", 0.25), log::u64("count", 42),
                log::boolean("flag", true)});
    log::event(log::Level::Debug, "test.hidden", {});
    log::diag(log::Level::Error, "test.diag", "");

    log::Logger::instance().reset();
    EXPECT_FALSE(log::enabled(log::Level::Error));

    const std::string contents = slurp(path);
    std::istringstream lines(contents);
    std::string line;
    unsigned n = 0;
    while (std::getline(lines, line)) {
        ++n;
        test::JsonValidator v(line);
        EXPECT_TRUE(v.valid()) << "not JSON: " << line;
    }
    EXPECT_EQ(n, 2u) << "debug event must be filtered at info level";
    EXPECT_NE(contents.find("\"event\":\"test.event\""),
              std::string::npos);
    EXPECT_NE(contents.find("\"count\":42"), std::string::npos);
    EXPECT_NE(contents.find("\"flag\":true"), std::string::npos);
    EXPECT_EQ(contents.find("test.hidden"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Log, JsonEscapeControlsAndQuotes)
{
    EXPECT_EQ(report::jsonEscape("plain"), "plain");
    EXPECT_EQ(report::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(report::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(report::jsonEscape("a\nb"), "a\\nb");
    const std::string esc = report::jsonEscape(std::string(1, '\x01'));
    EXPECT_EQ(esc, "\\u0001");
}

// --- Run manifests --------------------------------------------------

TEST(Manifest, SchemaValidJsonWithAllSections)
{
    core::RunManifest m = core::RunManifest::begin("observe_test");
    m.fingerprintHex = "00000000deadbeef";
    m.seed = 7;
    m.seeds = 2;
    m.ratePoints = 3;
    m.pointsTotal = 6;
    m.pointsCompleted = 5;
    m.pointsFailed = 1;
    m.pointsFromCheckpoint = 2;
    m.phases = {{"router_advance", 1.5, 0.75},
                {"channel_advance", 0.5, 0.25}};
    m.finish("ok");

    const std::string j = m.toJson();
    test::JsonValidator v(j);
    ASSERT_TRUE(v.valid()) << j;

    for (const char* key :
         {"\"schema\": \"orion-run-manifest-v1\"",
          "\"tool\": \"observe_test\"",
          "\"fingerprint\": \"00000000deadbeef\"",
          "\"stop_reason\": \"ok\"", "\"points\"", "\"build\"",
          "\"host\"", "\"rusage\"", "\"router_advance\"",
          "\"from_checkpoint\": 2"}) {
        EXPECT_NE(j.find(key), std::string::npos)
            << "missing " << key << " in:\n" << j;
    }
    // begin() stamps provenance; finish() stamps cost and times.
    EXPECT_FALSE(m.compiler.empty());
    EXPECT_FALSE(m.host.empty());
    EXPECT_GT(m.pid, 0);
    EXPECT_GE(m.endUnixSeconds, m.startUnixSeconds);
    EXPECT_GE(m.userCpuSeconds + m.sysCpuSeconds, 0.0);
    EXPECT_GT(m.maxRssKb, 0);
}

TEST(Manifest, WriteFileAtomicRoundTrip)
{
    const std::string path = tempPath("observe_manifest.json");
    core::writeFileAtomic(path, "first\n");
    EXPECT_EQ(slurp(path), "first\n");
    core::writeFileAtomic(path, "second\n");
    EXPECT_EQ(slurp(path), "second\n");
    // The staging file must not linger after the rename.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());

    EXPECT_THROW(
        core::writeFileAtomic(testing::TempDir() +
                                  "no_such_dir/x.json",
                              "y"),
        std::runtime_error);
}

// --- Progress tracker / heartbeat -----------------------------------

TEST(Progress, CountsAndSnapshotWithoutHeartbeatFile)
{
    core::ProgressTracker::Options po;
    po.totalCells = 4;
    po.jobs = 2;
    po.label = "unit";
    core::ProgressTracker tracker(po);

    EXPECT_EQ(tracker.done(), 0u);
    EXPECT_LT(tracker.etaSeconds(), 0.0) << "no samples yet";

    const unsigned a = tracker.beginCell(0, 0);
    const unsigned b = tracker.beginCell(1, 0);
    EXPECT_NE(a, b);
    std::atomic<std::uint64_t>* cycles = tracker.cycleCounter(a);
    ASSERT_NE(cycles, nullptr);
    cycles->store(1234, std::memory_order_relaxed);

    {
        const std::string j = tracker.heartbeatJson();
        test::JsonValidator v(j);
        ASSERT_TRUE(v.valid()) << j;
        EXPECT_NE(j.find("\"schema\":\"orion-heartbeat-v1\""),
                  std::string::npos);
        EXPECT_NE(j.find("\"cycles\":1234"), std::string::npos)
            << "in-flight worker must be visible: " << j;
    }

    tracker.endCell(a, false, 0.01);
    tracker.endCell(b, true, 0.02);
    tracker.noteCached(); // a cell merged from a resumed journal
    tracker.beginCell(2, 0);
    // Scope-less cell abandoned: finalize() must not hang on it.

    EXPECT_EQ(tracker.done(), 3u);
    EXPECT_EQ(tracker.failed(), 1u);
    EXPECT_EQ(tracker.fromCheckpoint(), 1u);
    EXPECT_EQ(tracker.total(), 4u);
    EXPECT_GE(tracker.etaSeconds(), 0.0);
    tracker.finalize();
}

TEST(Progress, HeartbeatFileFinishedAndValid)
{
    const std::string path = tempPath("observe_hb.json");
    std::remove(path.c_str());
    {
        core::ProgressTracker::Options po;
        po.totalCells = 2;
        po.jobs = 1;
        po.heartbeatPath = path;
        po.heartbeatIntervalSeconds = 0.05;
        core::ProgressTracker tracker(po);

        // The heartbeat exists from the very start of the run.
        const std::string early_snapshot = slurp(path);
        test::JsonValidator early(early_snapshot);
        EXPECT_TRUE(early.valid()) << early_snapshot;

        core::ProgressScope s1(&tracker, 0, 0);
        s1.end(false);
        core::ProgressScope s2(&tracker, 1, 0);
        s2.end(false);
        tracker.finalize();
    }
    const std::string j = slurp(path);
    test::JsonValidator v(j);
    ASSERT_TRUE(v.valid()) << j;
    EXPECT_NE(j.find("\"finished\":true"), std::string::npos) << j;
    EXPECT_NE(j.find("\"done\":2"), std::string::npos) << j;
    EXPECT_NE(j.find("\"workers\":[]"), std::string::npos) << j;
    std::remove(path.c_str());
}

TEST(Progress, ScopeDestructionWithoutEndCountsAsFailure)
{
    core::ProgressTracker::Options po;
    po.totalCells = 1;
    core::ProgressTracker tracker(po);
    {
        core::ProgressScope scope(&tracker, 0, 0);
        // An exception escape destroys the scope without end().
    }
    EXPECT_EQ(tracker.done(), 1u);
    EXPECT_EQ(tracker.failed(), 1u);
    tracker.finalize();
}

TEST(Progress, NullTrackerScopeIsFree)
{
    core::ProgressScope scope(nullptr, 0, 0);
    scope.setAttempt(2);
    EXPECT_EQ(scope.cycles(), nullptr);
    scope.end(false);
}

// --- Observability does not change results --------------------------

TEST(Progress, SweepBitIdenticalWithTrackerAttached)
{
    const NetworkConfig net = NetworkConfig::vc16();
    const TrafficConfig traffic = uniform(0.03);
    const SimConfig sim = smallRun();
    const std::vector<double> rates = {0.02, 0.04, 0.06};

    const std::vector<SweepPoint> plain = Sweep::overRates(
        net, traffic, sim, rates, SweepOptions::withJobs(2));

    core::ProgressTracker::Options po;
    po.totalCells = rates.size();
    po.jobs = 2;
    core::ProgressTracker tracker(po);
    SweepOptions opts = SweepOptions::withJobs(2);
    opts.progress = &tracker;
    const std::vector<SweepPoint> tracked =
        Sweep::overRates(net, traffic, sim, rates, opts);
    tracker.finalize();

    EXPECT_EQ(tracker.done(), rates.size());
    EXPECT_EQ(tracker.failed(), 0u);
    ASSERT_EQ(plain.size(), tracked.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        // Bitwise, not approximate: the tracker must be a pure
        // observer of the simulated machine.
        EXPECT_EQ(core::exactDouble(plain[i].report.avgLatencyCycles),
                  core::exactDouble(
                      tracked[i].report.avgLatencyCycles));
        EXPECT_EQ(
            core::exactDouble(plain[i].report.networkPowerWatts),
            core::exactDouble(tracked[i].report.networkPowerWatts));
        EXPECT_EQ(plain[i].report.totalCycles,
                  tracked[i].report.totalCycles);
        // Fresh cells carry their execution cost.
        EXPECT_TRUE(tracked[i].resources.valid);
        EXPECT_GE(tracked[i].resources.wallSeconds, 0.0);
        EXPECT_GE(tracked[i].resources.cpuSeconds, 0.0);
    }
}

TEST(Progress, ResumedSweepReportsCarriedOverCells)
{
    const NetworkConfig net = NetworkConfig::vc16();
    const TrafficConfig traffic = uniform(0.03);
    const SimConfig sim = smallRun();
    const std::vector<double> rates = {0.02, 0.04, 0.06};
    const std::uint64_t fp =
        core::sweepFingerprint(net, traffic, sim, rates, 1);
    const std::string journal_path = tempPath("observe_journal.ckpt");
    std::remove(journal_path.c_str());

    {
        core::CheckpointJournal journal(journal_path, fp, false);
        SweepOptions opts = SweepOptions::withJobs(1);
        opts.journal = &journal;
        Sweep::overRates(net, traffic, sim, rates, opts);
    }

    const core::CheckpointLoad load =
        core::loadCheckpoint(journal_path, fp);
    ASSERT_EQ(load.entries.size(), rates.size());

    core::ProgressTracker::Options po;
    po.totalCells = rates.size();
    core::ProgressTracker tracker(po);
    SweepOptions opts = SweepOptions::withJobs(1);
    opts.resume = &load.entries;
    opts.progress = &tracker;
    const std::vector<SweepPoint> pts =
        Sweep::overRates(net, traffic, sim, rates, opts);
    tracker.finalize();

    EXPECT_EQ(tracker.done(), rates.size());
    EXPECT_EQ(tracker.fromCheckpoint(), rates.size())
        << "every cell was satisfied from the journal";
    for (const SweepPoint& p : pts) {
        EXPECT_TRUE(p.fromCheckpoint);
        EXPECT_FALSE(p.resources.valid)
            << "cached cells cost nothing in this run";
    }
    std::remove(journal_path.c_str());
}

TEST(Profile, SharesSumToOneAndReportsUnchanged)
{
    const NetworkConfig net = NetworkConfig::vc16();
    const TrafficConfig traffic = uniform(0.05);
    SimConfig sim = smallRun();

    Simulation plain(net, traffic, sim);
    const Report base = plain.run();
    EXPECT_EQ(plain.phaseProfiler(), nullptr);

    sim.profilePhases = true;
    Simulation profiled(net, traffic, sim);
    const Report prof = profiled.run();

    EXPECT_EQ(core::exactDouble(base.avgLatencyCycles),
              core::exactDouble(prof.avgLatencyCycles));
    EXPECT_EQ(core::exactDouble(base.networkPowerWatts),
              core::exactDouble(prof.networkPowerWatts));
    EXPECT_EQ(base.totalCycles, prof.totalCycles);

    const core::PhaseProfiler* pp = profiled.phaseProfiler();
    ASSERT_NE(pp, nullptr);
    EXPECT_GT(pp->cycles(), 0u);
    EXPECT_GT(pp->sampledCycles(), 0u);
    const std::vector<core::PhaseShare> shares = core::phaseShares(*pp);
    ASSERT_FALSE(shares.empty());
    // Two share families, each a partition: the per-cycle kernel
    // stages (router/channel/audit/periodic) of the sampled cycle
    // time, and the run-level phases (warmup/measure/drain) of the
    // whole run's wall time.
    double cycle_total = 0.0;
    double run_total = 0.0;
    for (const core::PhaseShare& s : shares) {
        EXPECT_FALSE(s.name.empty());
        EXPECT_GE(s.share, 0.0);
        EXPECT_LE(s.share, 1.0);
        if (s.name == "warmup" || s.name == "measure" ||
            s.name == "drain")
            run_total += s.share;
        else
            cycle_total += s.share;
    }
    EXPECT_NEAR(cycle_total, 1.0, 1e-9)
        << "cycle-stage shares must partition the sampled time";
    EXPECT_NEAR(run_total, 1.0, 1e-9)
        << "run-phase shares must partition the run wall time";
}

TEST(Progress, ProgressCyclesCounterAdvances)
{
    const NetworkConfig net = NetworkConfig::vc16();
    const TrafficConfig traffic = uniform(0.05);
    SimConfig sim = smallRun();
    // The counter is stored every 4096 cycles; make the run long
    // enough to cross at least one update boundary.
    sim.samplePackets = 5000;
    std::atomic<std::uint64_t> cycles{0};
    sim.progressCycles = &cycles;

    Simulation simulation(net, traffic, sim);
    const Report report = simulation.run();
    EXPECT_GT(cycles.load(), 0u);
    EXPECT_LE(cycles.load(), report.totalCycles);
}

} // namespace
