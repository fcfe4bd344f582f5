/**
 * @file
 * Tests for the run-level observability layer: the structured logger,
 * run manifests, the sweep progress tracker that keeps one live, phase
 * profiling and per-point resource accounting. The key guarantee
 * throughout is the observability contract: attaching any of these
 * never changes simulation results — reports stay bit-identical with
 * telemetry on or off.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/clock.hh"
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

/** Poll @p holds for up to 10 s: true once it holds. */
bool
eventually(const std::function<bool()>& holds)
{
    const double deadline = core::monotonicSeconds() + 10.0;
    while (!holds()) {
        if (core::monotonicSeconds() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
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
    const auto quoted = [](const std::string& s) {
        report::JsonWriter w;
        return w.value(s).take();
    };
    EXPECT_EQ(quoted("plain"), "\"plain\"");
    EXPECT_EQ(quoted("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(quoted("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(quoted("a\nb"), "\"a\\nb\"");
    EXPECT_EQ(quoted(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Json, WriterIsCompactWithOneNumberRule)
{
    report::JsonWriter w;
    w.beginObject().field("s", "a\"b").field("u", UINT64_MAX);
    w.field("i", INT64_MIN).field("d", 0.1).field("x", 3.0);
    w.field("inf", std::numeric_limits<double>::infinity());
    w.field("nan", std::numeric_limits<double>::quiet_NaN());
    w.field("t", true).key("n").null();
    w.key("a").beginArray().value(1).value(-2).beginObject().endObject();
    w.endArray().key("lines").beginArray(/*onePerLine=*/true);
    w.value(1u).value("two").endArray().endObject();
    const std::string text = w.take();
    EXPECT_EQ(text,
              "{\"s\":\"a\\\"b\",\"u\":18446744073709551615,"
              "\"i\":-9223372036854775808,\"d\":0.10000000000000001,"
              "\"x\":3,\"inf\":null,\"nan\":null,\"t\":true,\"n\":null,"
              "\"a\":[1,-2,{}],\"lines\":[\n1,\n\"two\"\n]}");
    test::JsonValidator v(text);
    EXPECT_TRUE(v.valid());
    // take() starts a new document.
    EXPECT_EQ(w.beginArray().endArray().takeLine(), "[]\n");
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
    m.workers.push_back({1, 2, 0, 3, 4096, 0.5});
    // Live: unfinished, estimates unknown, no end time.
    const std::string live = m.toJson();
    for (const char* key :
         {"\"schema\":\"orion-run-manifest-v3\"", "\"finished\":false",
          "\"stop_reason\":\"running\"", "\"eta_s\":null",
          "\"end_unix_s\":null",
          "\"workers\":[{\"slot\":1,\"rate_index\":2,\"seed_index\":0,"
          "\"attempt\":3,\"cycles\":4096,\"running_s\":0.5}]"}) {
        EXPECT_NE(live.find(key), std::string::npos)
            << "missing " << key << " in:\n" << live;
    }

    m.finish("ok");
    telemetry::MetricsRegistry metrics;
    metrics.addGauge("sim.phase.router_advance_share",
                     [] { return 0.75; });
    const std::string j = m.toJson(metrics);
    test::JsonValidator v(j);
    ASSERT_TRUE(v.valid()) << j;

    for (const char* key :
         {"\"schema\":\"orion-run-manifest-v3\"",
          "\"tool\":\"observe_test\"",
          "\"fingerprint\":\"00000000deadbeef\"", "\"finished\":true",
          "\"stop_reason\":\"ok\"", "\"points\"", "\"build\"",
          "\"host\"", "\"rusage\"", "\"updated_unix_s\"",
          "\"metrics\":{\"sim.phase.router_advance_share\":0.75}",
          "\"from_checkpoint\":2"}) {
        EXPECT_NE(j.find(key), std::string::npos)
            << "missing " << key << " in:\n" << j;
    }
    // Without a registry the metrics object is empty.
    EXPECT_NE(m.toJson().find("\"metrics\":{}"), std::string::npos);
    // begin() stamps provenance; finish() stamps cost and times.
    EXPECT_FALSE(m.compiler.empty());
    EXPECT_FALSE(m.host.empty());
    EXPECT_GT(m.pid, 0);
    EXPECT_GE(m.endUnixSeconds, m.startUnixSeconds);
    EXPECT_EQ(m.updatedUnixSeconds, m.endUnixSeconds);
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

    // A manifest that cannot be written is a lost output.
    EXPECT_THROW(
        core::writeFileAtomic(testing::TempDir() +
                                  "no_such_dir/x.json",
                              "y"),
        core::IoError);
}

// --- Progress tracker: the live run manifest ------------------------

/** Tracker options for a grid of @p cells on @p jobs workers. */
core::ProgressTracker::Options
trackerOptions(std::uint64_t cells, unsigned jobs,
               const std::string& path = "")
{
    core::ProgressTracker::Options po;
    po.manifestPath = path;
    po.manifest = core::RunManifest::begin("observe_test");
    po.manifest.pointsTotal = cells;
    po.manifest.jobs = jobs;
    return po;
}

TEST(Progress, CountsAndSnapshot)
{
    const std::string path = tempPath("observe_counts.json");
    core::ProgressTracker tracker(trackerOptions(4, 2, path));

    core::RunManifest m = tracker.snapshot();
    EXPECT_EQ(m.pointsCompleted + m.pointsFailed, 0u);
    EXPECT_TRUE(std::isnan(m.etaSeconds)) << "no samples yet";

    const unsigned a = tracker.beginCell(0, 0);
    const unsigned b = tracker.beginCell(1, 0);
    EXPECT_NE(a, b);
    std::atomic<std::uint64_t>* cycles = tracker.cycleCounter(a);
    ASSERT_NE(cycles, nullptr);
    cycles->store(1234, std::memory_order_relaxed);

    {
        const std::string j = tracker.snapshot().toJson();
        test::JsonValidator v(j);
        ASSERT_TRUE(v.valid()) << j;
        EXPECT_NE(j.find("\"cycles\":1234"), std::string::npos)
            << "in-flight worker must be visible: " << j;
    }

    tracker.endCell(a, false, 0.01);
    tracker.endCell(b, true, 0.02);
    tracker.noteCached(false); // cells merged from a resumed journal
    tracker.noteCached(true);
    tracker.beginCell(2, 0);
    // Scope-less cell abandoned: finish() must not hang on it.

    m = tracker.snapshot();
    EXPECT_EQ(m.pointsCompleted, 2u);
    EXPECT_EQ(m.pointsFailed, 2u) << "a cached failure still failed";
    EXPECT_EQ(m.pointsFromCheckpoint, 2u);
    EXPECT_GE(m.etaSeconds, 0.0);
    tracker.finish("ok");
    std::remove(path.c_str());
}

TEST(Progress, ManifestLiveFromTheStartAndFinal)
{
    const std::string path = tempPath("observe_live.json");
    std::remove(path.c_str());
    {
        core::ProgressTracker::Options po = trackerOptions(2, 1, path);
        po.intervalSeconds = 3600.0; // only a finished cell wakes it
        core::ProgressTracker tracker(po);

        // The manifest exists from the very start of the run.
        const std::string early_snapshot = slurp(path);
        test::JsonValidator early(early_snapshot);
        EXPECT_TRUE(early.valid()) << early_snapshot;
        EXPECT_NE(early_snapshot.find("\"finished\":false"),
                  std::string::npos);

        core::ProgressScope s1(&tracker, 0, 0);
        s1.end(false, 0.01);
        EXPECT_TRUE(eventually([&path] {
            return slurp(path).find("\"completed\":1") != std::string::npos;
        })) << "a finished cell must get the manifest rewritten";
        core::ProgressScope s2(&tracker, 1, 0);
        s2.end(false, 0.01);
        tracker.finish("ok");
    }
    const std::string j = slurp(path);
    test::JsonValidator v(j);
    ASSERT_TRUE(v.valid()) << j;
    EXPECT_NE(j.find("\"finished\":true"), std::string::npos) << j;
    EXPECT_NE(j.find("\"stop_reason\":\"ok\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"completed\":2"), std::string::npos) << j;
    EXPECT_NE(j.find("\"workers\":[]"), std::string::npos) << j;
    std::remove(path.c_str());
}

TEST(Progress, LostManifestWarnsMidRunAndThrowsAtTheEnd)
{
    // A manifest that cannot be written at the start fails the run
    // before any cell runs.
    EXPECT_THROW(core::ProgressTracker(trackerOptions(
                     1, 1, tempPath("no_such_dir/observe.json"))),
                 core::IoError);

    const std::string dir = tempPath("observe_lost");
    std::filesystem::create_directories(dir);
    const std::string log_path = tempPath("observe_lost.jsonl");
    std::remove(log_path.c_str());
    log::configure(log_path, log::Level::Warn);
    core::ProgressTracker tracker(trackerOptions(1, 1, dir + "/m.json"));
    std::filesystem::remove_all(dir);
    core::ProgressScope scope(&tracker, 0, 0);
    scope.end(false, 0.01); // a mid-run rewrite fails: warns, no throw
    EXPECT_TRUE(eventually([&log_path] {
        return slurp(log_path).find("manifest.write_failed") !=
               std::string::npos;
    })) << slurp(log_path);
    EXPECT_THROW(tracker.finish("ok"), core::IoError);
    log::Logger::instance().reset();
    std::remove(log_path.c_str());
}

TEST(Progress, NothingWatchesWithoutAManifestOrLine)
{
    core::ProgressTracker tracker(trackerOptions(1, 1));
    const unsigned slot = tracker.beginCell(0, 0);
    // No reader: cells run without the periodic cycle hook.
    EXPECT_EQ(tracker.cycleCounter(slot), nullptr);
    tracker.endCell(slot, false, 0.01);
    EXPECT_EQ(tracker.snapshot().pointsCompleted, 1u);
    tracker.finish("ok"); // no file to write
}

TEST(Progress, ScopeDestructionWithoutEndCountsAsFailure)
{
    core::ProgressTracker tracker(trackerOptions(1, 1));
    {
        core::ProgressScope scope(&tracker, 0, 0);
        // An exception escape destroys the scope without end().
    }
    EXPECT_EQ(tracker.snapshot().pointsFailed, 1u);
    EXPECT_EQ(tracker.snapshot().pointsCompleted, 0u);
}

TEST(Progress, NullTrackerScopeIsFree)
{
    core::ProgressScope scope(nullptr, 0, 0);
    scope.setAttempt(2);
    EXPECT_EQ(scope.cycles(), nullptr);
    scope.end(false, 0.01);
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

    const std::string path = tempPath("observe_sweep.json");
    core::ProgressTracker tracker(trackerOptions(rates.size(), 2, path));
    SweepOptions opts = SweepOptions::withJobs(2);
    opts.progress = &tracker;
    const std::vector<SweepPoint> tracked =
        Sweep::overRates(net, traffic, sim, rates, opts);
    tracker.finish("ok");
    std::remove(path.c_str());

    EXPECT_EQ(tracker.snapshot().pointsCompleted, rates.size());
    EXPECT_EQ(tracker.snapshot().pointsFailed, 0u);
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
    SimConfig sim = smallRun();
    // One poisoned cell: its journaled failure must count as failed
    // when the resume merges it.
    sim.debugPoisonRate = 0.04;
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

    core::ProgressTracker tracker(trackerOptions(rates.size(), 1));
    SweepOptions opts = SweepOptions::withJobs(1);
    opts.resume = &load.entries;
    opts.progress = &tracker;
    const std::vector<SweepPoint> pts =
        Sweep::overRates(net, traffic, sim, rates, opts);
    tracker.finish("failed-points");

    const core::RunManifest m = tracker.snapshot();
    EXPECT_EQ(m.pointsFromCheckpoint, rates.size())
        << "every cell was satisfied from the journal";
    EXPECT_EQ(m.pointsFailed, 1u);
    EXPECT_EQ(m.pointsCompleted, rates.size() - 1);
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
    telemetry::MetricsRegistry reg;
    telemetry::registerPhaseMetrics(reg, *pp);
    ASSERT_EQ(reg.size(), 2u * core::PhaseProfiler::kNumPhases);
    // Two share families, each a partition: the per-cycle kernel
    // stages (sim.phase.*: router/channel/audit/periodic) of the
    // sampled cycle time, and the run-level phases (core.run.*:
    // warmup/measure/drain) of the whole run's wall time.
    double cycle_total = 0.0;
    double run_total = 0.0;
    for (std::size_t i = 0; i < reg.size(); ++i) {
        const std::string& name = reg.name(i);
        EXPECT_EQ(reg.kind(i), telemetry::MetricKind::Gauge) << name;
        const double v = reg.read(i);
        EXPECT_GE(v, 0.0) << name;
        if (name.size() < 6 || name.substr(name.size() - 6) != "_share")
            continue;
        EXPECT_LE(v, 1.0) << name;
        if (name.rfind("core.run.", 0) == 0)
            run_total += v;
        else if (name.rfind("sim.phase.", 0) == 0)
            cycle_total += v;
        else
            ADD_FAILURE() << "unexpected gauge " << name;
    }
    EXPECT_NE(reg.find("sim.phase.router_advance_share"),
              telemetry::MetricsRegistry::npos);
    EXPECT_NE(reg.find("core.run.measure_s"),
              telemetry::MetricsRegistry::npos);
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
