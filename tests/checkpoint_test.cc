/**
 * @file
 * Sweep checkpoint/resume, cooperative cancellation, and retry-rule
 * tests (docs/ROBUSTNESS.md, "Survivable runs").
 *
 * The load-bearing property throughout: a sweep interrupted at ANY
 * point and resumed from its journal produces byte-identical results
 * to an uninterrupted run, at any --jobs. Everything else (exact
 * hexfloat round-trips, per-line checksums, fingerprint binding,
 * torn-tail tolerance) exists to make that property safe.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/cancel.hh"
#include "core/checkpoint.hh"
#include "core/config.hh"
#include "core/sweep.hh"

namespace {

using namespace orion;

std::string
tmpPath(const std::string& name)
{
    return testing::TempDir() + "orion_checkpoint_" + name;
}

std::string
readAll(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::string s((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    return s;
}

void
writeAll(const std::string& path, const std::string& content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

// --- exact double round-trip ------------------------------------------

TEST(ExactDouble, RoundTripsBitPatterns)
{
    const double values[] = {0.0,
                             -0.0,
                             1.0,
                             1.0 / 3.0,
                             0.1,
                             -12345.678901234567,
                             1e-300,
                             5e-324, // smallest denormal
                             1.7976931348623157e308,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
    for (double v : values) {
        const double back =
            core::parseExactDouble(core::exactDouble(v));
        EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0)
            << core::exactDouble(v);
    }
    // Negative zero keeps its sign bit.
    EXPECT_TRUE(
        std::signbit(core::parseExactDouble(core::exactDouble(-0.0))));
}

TEST(ExactDouble, RejectsMalformedRenderings)
{
    EXPECT_THROW(core::parseExactDouble(""), core::CheckpointError);
    EXPECT_THROW(core::parseExactDouble("xyz"),
                 core::CheckpointError);
    EXPECT_THROW(core::parseExactDouble("0x1.8p1junk"),
                 core::CheckpointError);
}

// --- entry wire format ------------------------------------------------

core::CheckpointEntry
sampleEntry()
{
    core::CheckpointEntry e;
    e.rateIndex = 7;
    e.seedIndex = 3;
    e.point.attempts = 2;
    e.point.report.avgLatencyCycles = 18.190000000000001;
    e.point.report.p50LatencyCycles = 18.0;
    e.point.report.p95LatencyCycles = 27.0;
    e.point.report.p99LatencyCycles = 32.5;
    e.point.report.maxLatencyCycles = 64.0;
    e.point.report.sampleInjected = 200;
    e.point.report.sampleEjected = 200;
    e.point.report.offeredLoad = 0.05;
    e.point.report.acceptedFlitsPerNodePerCycle = 0.2586;
    e.point.report.totalCycles = 60000;
    e.point.report.measuredCycles = 41234;
    e.point.report.stopReason = StopReason::Completed;
    e.point.report.completed = true;
    e.point.report.moduleCount = 321;
    e.point.report.flitsCorrupted = 5;
    e.point.report.packetsRetransmitted = 4;
    e.point.report.faultLogHash = 0xdeadbeefcafef00dULL;
    e.point.report.networkPowerWatts = 2.1557;
    e.point.report.dynamicEnergyJoules = 1.25e-6;
    e.point.report.energyPerFlitJoules = 3.5e-12;
    e.point.report.breakdownWatts = {0.0998, 1.1604, 0.00453, 0.8909,
                               0.0};
    e.point.report.nodePowerWatts = {0.25, 0.5, -0.0, 1.0 / 3.0};
    e.point.report.eventCounts.fill(11);
    e.point.report.eventCounts[2] = 99999;
    return e;
}

void
expectReportsEqual(const Report& a, const Report& b)
{
    EXPECT_EQ(a.avgLatencyCycles, b.avgLatencyCycles);
    EXPECT_EQ(a.p50LatencyCycles, b.p50LatencyCycles);
    EXPECT_EQ(a.p95LatencyCycles, b.p95LatencyCycles);
    EXPECT_EQ(a.p99LatencyCycles, b.p99LatencyCycles);
    EXPECT_EQ(a.maxLatencyCycles, b.maxLatencyCycles);
    EXPECT_EQ(a.sampleInjected, b.sampleInjected);
    EXPECT_EQ(a.sampleEjected, b.sampleEjected);
    EXPECT_EQ(a.offeredLoad, b.offeredLoad);
    EXPECT_EQ(a.acceptedFlitsPerNodePerCycle,
              b.acceptedFlitsPerNodePerCycle);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.measuredCycles, b.measuredCycles);
    EXPECT_EQ(a.stopReason, b.stopReason);
    EXPECT_EQ(a.checkFailureDiagnostic, b.checkFailureDiagnostic);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.deadlockSuspected, b.deadlockSuspected);
    EXPECT_EQ(a.moduleCount, b.moduleCount);
    EXPECT_EQ(a.flitsCorrupted, b.flitsCorrupted);
    EXPECT_EQ(a.flitsOutageDropped, b.flitsOutageDropped);
    EXPECT_EQ(a.flitsDiscarded, b.flitsDiscarded);
    EXPECT_EQ(a.packetsRetransmitted, b.packetsRetransmitted);
    EXPECT_EQ(a.packetsLost, b.packetsLost);
    EXPECT_EQ(a.faultLogHash, b.faultLogHash);
    EXPECT_EQ(a.packetsUnreachable, b.packetsUnreachable);
    EXPECT_EQ(a.reroutes, b.reroutes);
    EXPECT_EQ(a.deadlocksDetected, b.deadlocksDetected);
    EXPECT_EQ(a.deadlocksRecovered, b.deadlocksRecovered);
    EXPECT_EQ(a.networkPowerWatts, b.networkPowerWatts);
    EXPECT_EQ(a.dynamicEnergyJoules, b.dynamicEnergyJoules);
    EXPECT_EQ(a.energyPerFlitJoules, b.energyPerFlitJoules);
    EXPECT_EQ(a.breakdownWatts.buffer, b.breakdownWatts.buffer);
    EXPECT_EQ(a.breakdownWatts.crossbar, b.breakdownWatts.crossbar);
    EXPECT_EQ(a.breakdownWatts.arbiter, b.breakdownWatts.arbiter);
    EXPECT_EQ(a.breakdownWatts.link, b.breakdownWatts.link);
    EXPECT_EQ(a.breakdownWatts.centralBuffer,
              b.breakdownWatts.centralBuffer);
    ASSERT_EQ(a.nodePowerWatts.size(), b.nodePowerWatts.size());
    for (std::size_t i = 0; i < a.nodePowerWatts.size(); ++i) {
        EXPECT_EQ(std::memcmp(&a.nodePowerWatts[i],
                              &b.nodePowerWatts[i], sizeof(double)),
                  0);
    }
    EXPECT_EQ(a.eventCounts, b.eventCounts);
}

TEST(CheckpointEntry, RoundTripsEveryField)
{
    const core::CheckpointEntry e = sampleEntry();
    const core::CheckpointEntry back =
        core::parseEntry(core::serializeEntry(e));
    EXPECT_EQ(back.rateIndex, e.rateIndex);
    EXPECT_EQ(back.seedIndex, e.seedIndex);
    EXPECT_EQ(back.point.attempts, e.point.attempts);
    EXPECT_FALSE(back.point.failed());
    expectReportsEqual(back.point.report, e.point.report);
}

TEST(CheckpointEntry, RoundTripsFailureWithHostileStrings)
{
    core::CheckpointEntry e = sampleEntry();
    SweepPoint& p = e.point;
    p.report.stopReason = StopReason::WorkerCrash;
    // Every byte the wire format treats specially, plus a few more.
    p.failureMessage = "pipe | eq = pct % nl \n cr \r end";
    p.failureForensics = "{\"reason\":\"x|y=z\",\n\"cycle\":9}";
    p.workerExit = "signal 11";
    const core::CheckpointEntry back =
        core::parseEntry(core::serializeEntry(e));
    EXPECT_TRUE(back.point.failed());
    EXPECT_EQ(back.point.report.stopReason, StopReason::WorkerCrash);
    EXPECT_EQ(back.point.failureMessage, p.failureMessage);
    EXPECT_EQ(back.point.failureForensics, p.failureForensics);
    EXPECT_EQ(back.point.workerExit, p.workerExit);
}

/** A failed entry in which every field holds a value no other field
 * holds, so a swapped, renamed or dropped key changes the line. */
core::CheckpointEntry
knownAnswerEntry()
{
    core::CheckpointEntry e;
    e.rateIndex = 4;
    e.seedIndex = 9;
    e.point.attempts = 3;
    Report& r = e.point.report;
    r.avgLatencyCycles = 21.75;
    r.p50LatencyCycles = 19.0;
    r.p95LatencyCycles = 33.0;
    r.p99LatencyCycles = 47.5;
    r.maxLatencyCycles = 96.0;
    r.sampleInjected = 500;
    r.sampleEjected = 498;
    r.offeredLoad = 0.125;
    r.acceptedFlitsPerNodePerCycle = 1.0 / 3.0;
    r.totalCycles = 71234;
    r.measuredCycles = 65432;
    r.stopReason = StopReason::CheckFailure;
    r.checkFailureDiagnostic = "credit | underflow = 100% \n at r3";
    r.completed = false;
    r.deadlockSuspected = true;
    r.moduleCount = 59;
    r.flitsCorrupted = 13;
    r.flitsOutageDropped = 14;
    r.flitsDiscarded = 15;
    r.packetsRetransmitted = 16;
    r.packetsLost = 17;
    r.faultLogHash = 0x0123456789abcdefULL;
    r.packetsUnreachable = 18;
    r.reroutes = 19;
    r.deadlocksDetected = 20;
    r.deadlocksRecovered = 21;
    r.networkPowerWatts = 2.5;
    r.dynamicEnergyJoules = 3.0e-6;
    r.energyPerFlitJoules = 4.25e-12;
    r.breakdownWatts = {0.5, 0.75, 0.0625, 1.125, 0.03125};
    r.nodePowerWatts = {0.1, -0.0, 1.5};
    for (std::size_t i = 0; i < r.eventCounts.size(); ++i)
        r.eventCounts[i] = 1000 + i;
    e.point.failureMessage = "pipe | eq = pct % nl \n cr \r end";
    e.point.failureForensics = "{\"reason\":\"x|y=z\",\n\"cycle\":9}";
    e.point.workerExit = "exit 3";
    return e;
}

TEST(CheckpointEntry, KnownAnswerLine)
{
    // The journal's `v1` wire format, spelled out: journals that older
    // builds wrote must keep resuming, so a change to any key, its
    // order or its encoding has to fail here.
    const std::string line =
        "P|ri=4|si=9|att=3|al=0x1.5cp+4|q50=0x1.3p+4|q95=0x1.08p+5"
        "|q99=0x1.7cp+5|ml=0x1.8p+6|sj=500|se=498|ol=0x1p-3"
        "|tp=0x1.5555555555555p-2|tc=71234|mc=65432|sr=3"
        "|cd=credit %7C underflow = 100%25 %0A at r3|co=0|dl=1|mo=59"
        "|fc=13|fo=14|fd=15|pr=16|pl=17|fh=81985529216486895|pu=18"
        "|rr=19|dd=20|dr=21|pw=0x1.4p+1|de=0x1.92a737110e454p-19"
        "|ef=0x1.2b1131940c8b2p-38|b0=0x1p-1|b1=0x1.8p-1|b2=0x1p-4"
        "|b3=0x1.2p+0|b4=0x1p-5|np=0x1.999999999999ap-4,-0x0p+0,0x1.8p+0"
        "|ec=1000,1001,1002,1003,1004,1005,1006,1007,1008,1009,1010"
        "|f=1|flr=3|fms=pipe %7C eq = pct %25 nl %0A cr %0D end"
        "|fjn={\"reason\":\"x%7Cy=z\",%0A\"cycle\":9}|wx=exit 3"
        "|c=dc670e10bf42f040";
    const core::CheckpointEntry e = knownAnswerEntry();
    EXPECT_EQ(core::serializeEntry(e), line);

    const core::CheckpointEntry back = core::parseEntry(line);
    EXPECT_EQ(back.rateIndex, e.rateIndex);
    EXPECT_EQ(back.seedIndex, e.seedIndex);
    EXPECT_EQ(back.point.attempts, e.point.attempts);
    expectReportsEqual(back.point.report, e.point.report);
    EXPECT_TRUE(back.point.failed());
    EXPECT_EQ(back.point.report.stopReason, StopReason::CheckFailure);
    EXPECT_EQ(back.point.failureMessage, e.point.failureMessage);
    EXPECT_EQ(back.point.failureForensics, e.point.failureForensics);
    EXPECT_EQ(back.point.workerExit, e.point.workerExit);
}

TEST(CheckpointEntry, RefusesFailureFieldsThatDisagreeWithTheStopReason)
{
    // f= and flr= restate the stop table's verdict on sr=; a sealed
    // line whose restatement differs is malformed, not a second
    // opinion.
    const auto sealed = [](const std::string& payload) {
        return payload + "|c=" + core::hex16(core::fnv1a64(payload));
    };
    const std::string head =
        "P|ri=1|si=2|ec=1,2,3,4,5,6,7,8,9,10,11|sr=";
    EXPECT_TRUE(core::parseEntry(sealed(head + "3|f=1|flr=3"))
                    .point.failed());
    EXPECT_FALSE(core::parseEntry(sealed(head + "0")).point.failed());
    for (const std::string& bad :
         {sealed(head + "3"), sealed(head + "3|f=1"),
          sealed(head + "3|f=1|flr=7"), sealed(head + "3|flr=3"),
          sealed(head + "0|f=1|flr=0"), sealed(head + "0|flr=3"),
          sealed(head + "7|f=1|flr=3"), sealed(head + "8")}) {
        EXPECT_THROW(core::parseEntry(bad), core::CheckpointError)
            << bad;
    }
}

TEST(CheckpointEntry, ChecksumCatchesEveryOneByteCorruption)
{
    const std::string line = core::serializeEntry(sampleEntry());
    // Flipping any single byte must never parse back cleanly:
    // either the checksum catches it or the field parser does.
    for (std::size_t i = 0; i < line.size(); i += 7) {
        std::string bad = line;
        bad[i] = static_cast<char>(bad[i] ^ 0x11);
        EXPECT_THROW(core::parseEntry(bad), core::CheckpointError)
            << "byte " << i;
    }
}

TEST(CheckpointEntry, RejectsTruncationsAndUnknownKeys)
{
    const std::string line = core::serializeEntry(sampleEntry());
    EXPECT_THROW(core::parseEntry(line.substr(0, line.size() / 2)),
                 core::CheckpointError);
    EXPECT_THROW(core::parseEntry(""), core::CheckpointError);
    EXPECT_THROW(core::parseEntry("P|zz=1|c=0000000000000000"),
                 core::CheckpointError);

    // Correctly checksummed lines: the minimal entry (the three
    // required keys) parses; each required key missing, an unknown
    // key, a wrong event-count arity, a field without '=' and a
    // negative index do not, and neither does a bad checksum.
    const auto sealed = [](const std::string& payload) {
        return payload + "|c=" + core::hex16(core::fnv1a64(payload));
    };
    const std::string ec = "ec=1,2,3,4,5,6,7,8,9,10,11";
    const core::CheckpointEntry min =
        core::parseEntry(sealed("P|ri=1|si=2|" + ec));
    EXPECT_EQ(min.rateIndex, 1u);
    EXPECT_EQ(min.seedIndex, 2u);
    EXPECT_EQ(min.point.report.eventCounts[10], 11u);
    for (const std::string& bad :
         {sealed("P|si=2|" + ec), sealed("P|ri=1|" + ec),
          sealed("P|ri=1|si=2"), sealed("P|ri=1|si=2|" + ec + "|zz=1"),
          sealed("P|ri=1|si=2|ec=1,2,3,4,5,6,7,8,9,10"),
          sealed("P|ri=1|si=2|" + ec + ",12"),
          sealed("P|ri=1|si=2|" + ec + "|al"),
          sealed("P|ri=-1|si=2|" + ec),
          "P|ri=1|si=2|" + ec + "|c=0123456789abcdef"}) {
        EXPECT_THROW(core::parseEntry(bad), core::CheckpointError)
            << bad;
    }
}

// --- fingerprint binding ----------------------------------------------

TEST(SweepFingerprint, BindsResultDeterminingConfig)
{
    const NetworkConfig net = NetworkConfig::vc16();
    const TrafficConfig traffic;
    SimConfig sim;
    const std::vector<double> rates = {0.02, 0.04, 0.06};
    const std::uint64_t base =
        core::sweepFingerprint(net, traffic, sim, rates, 2);

    // Stable across calls.
    EXPECT_EQ(core::sweepFingerprint(net, traffic, sim, rates, 2),
              base);

    // Sensitive to everything that changes results...
    SimConfig seeded = sim;
    seeded.seed = 99;
    EXPECT_NE(core::sweepFingerprint(net, traffic, seeded, rates, 2),
              base);
    EXPECT_NE(core::sweepFingerprint(net, traffic, sim,
                                     {0.02, 0.04, 0.07}, 2),
              base);
    EXPECT_NE(core::sweepFingerprint(net, traffic, sim, rates, 3),
              base);
    EXPECT_NE(core::sweepFingerprint(NetworkConfig::vc64(), traffic,
                                     sim, rates, 2),
              base);

    // ...but not to telemetry, which never changes report bytes.
    SimConfig telem = sim;
    telem.telemetry.sampleInterval = 500;
    telem.telemetry.traceEnabled = true;
    EXPECT_EQ(core::sweepFingerprint(net, traffic, telem, rates, 2),
              base);
}

// --- journal file round trip ------------------------------------------

TEST(CheckpointJournal, WritesHeaderAndLoadableEntries)
{
    const std::string path = tmpPath("roundtrip.journal");
    const std::uint64_t fp = 0x1234abcd5678ef01ULL;
    {
        core::CheckpointJournal j(path, fp, /*resume=*/false);
        core::CheckpointEntry e = sampleEntry();
        for (unsigned i = 0; i < 3; ++i) {
            e.rateIndex = i;
            j.append(e);
        }
    }
    const core::CheckpointLoad load = core::loadCheckpoint(path, fp);
    EXPECT_EQ(load.fingerprint, fp);
    EXPECT_FALSE(load.truncatedTail);
    ASSERT_EQ(load.entries.size(), 3u);
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_EQ(load.entries[i].rateIndex, i);
    std::remove(path.c_str());
}

TEST(CheckpointJournal, ResumeModeAppendsAfterExistingEntries)
{
    const std::string path = tmpPath("append.journal");
    const std::uint64_t fp = 42;
    {
        core::CheckpointJournal j(path, fp, false);
        core::CheckpointEntry e = sampleEntry();
        e.rateIndex = 0;
        j.append(e);
    }
    {
        core::CheckpointJournal j(path, fp, /*resume=*/true);
        core::CheckpointEntry e = sampleEntry();
        e.rateIndex = 1;
        j.append(e);
    }
    const core::CheckpointLoad load = core::loadCheckpoint(path, fp);
    ASSERT_EQ(load.entries.size(), 2u);
    EXPECT_EQ(load.entries[0].rateIndex, 0u);
    EXPECT_EQ(load.entries[1].rateIndex, 1u);
    std::remove(path.c_str());
}

TEST(CheckpointJournal, TornFinalLineIsToleratedAndDropped)
{
    const std::string path = tmpPath("torn.journal");
    const std::uint64_t fp = 7;
    {
        core::CheckpointJournal j(path, fp, false);
        core::CheckpointEntry e = sampleEntry();
        e.rateIndex = 0;
        j.append(e);
        e.rateIndex = 1;
        j.append(e);
    }
    // Simulate the torn write of a SIGKILL: half an entry, no newline.
    std::string content = readAll(path);
    core::CheckpointEntry e = sampleEntry();
    e.rateIndex = 2;
    const std::string full = core::serializeEntry(e);
    writeAll(path, content + full.substr(0, full.size() / 2));

    const core::CheckpointLoad load = core::loadCheckpoint(path, fp);
    EXPECT_TRUE(load.truncatedTail);
    ASSERT_EQ(load.entries.size(), 2u);
    EXPECT_EQ(load.entries[1].rateIndex, 1u);
    std::remove(path.c_str());
}

TEST(CheckpointJournal, ResumeCutsADroppedTailBeforeAppending)
{
    // Two kinds of damaged final line that loadCheckpoint drops: a
    // torn write without its newline, and a bit-flipped entry that
    // does end in one. Resuming must not glue the next entry onto the
    // fragment, so a second load sees every entry and no damage.
    const std::uint64_t fp = 11;
    for (const bool with_newline : {false, true}) {
        SCOPED_TRACE(with_newline ? "bit-flipped line" : "torn line");
        const std::string path = tmpPath("resume_tail.journal");
        {
            core::CheckpointJournal j(path, fp, false);
            core::CheckpointEntry e = sampleEntry();
            for (unsigned i = 0; i < 2; ++i) {
                e.rateIndex = i;
                j.append(e);
            }
        }
        core::CheckpointEntry e = sampleEntry();
        e.rateIndex = 2;
        std::string damaged = core::serializeEntry(e);
        if (with_newline) {
            damaged[damaged.size() / 2] ^= 0x01;
            damaged += '\n';
        } else {
            damaged.resize(damaged.size() / 2);
        }
        writeAll(path, readAll(path) + damaged);
        ASSERT_TRUE(core::loadCheckpoint(path, fp).truncatedTail);

        {
            core::CheckpointJournal j(path, fp, /*resume=*/true);
            for (unsigned i = 2; i < 4; ++i) {
                e.rateIndex = i;
                j.append(e);
            }
        }
        const core::CheckpointLoad load = core::loadCheckpoint(path, fp);
        EXPECT_FALSE(load.truncatedTail);
        ASSERT_EQ(load.entries.size(), 4u);
        for (unsigned i = 0; i < 4; ++i)
            EXPECT_EQ(load.entries[i].rateIndex, i);
        std::remove(path.c_str());
    }
}

TEST(CheckpointJournal, MidFileCorruptionIsAStructuredError)
{
    const std::string path = tmpPath("corrupt.journal");
    const std::uint64_t fp = 7;
    {
        core::CheckpointJournal j(path, fp, false);
        core::CheckpointEntry e = sampleEntry();
        for (unsigned i = 0; i < 4; ++i) {
            e.rateIndex = i;
            j.append(e);
        }
    }
    std::string content = readAll(path);
    // Flip one byte in the SECOND entry line (not the last): that is
    // not a crash artifact, it is corruption, and resuming would be
    // unsafe.
    std::size_t line_start = content.find('\n') + 1; // after header
    line_start = content.find('\n', line_start) + 1; // after entry 0
    content[line_start + 10] =
        static_cast<char>(content[line_start + 10] ^ 0x40);
    writeAll(path, content);
    try {
        core::loadCheckpoint(path, fp);
        FAIL() << "corrupt mid-file line must not load";
    } catch (const core::CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointJournal, FingerprintMismatchRefusesToResume)
{
    const std::string path = tmpPath("mismatch.journal");
    {
        core::CheckpointJournal j(path, 1, false);
    }
    try {
        core::loadCheckpoint(path, 2);
        FAIL() << "fingerprint mismatch must not load";
    } catch (const core::CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find("different configuration"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(core::loadCheckpoint(tmpPath("nonexistent.journal"),
                                      1),
                 core::CheckpointError);
    std::remove(path.c_str());
}

// --- resume == fresh, bit-identically ---------------------------------

class ResumeFixture : public ::testing::Test
{
  protected:
    NetworkConfig net = NetworkConfig::vc16();
    TrafficConfig traffic;
    SimConfig sim;
    std::vector<double> rates = {0.02, 0.04, 0.06};

    void
    SetUp() override
    {
        sim.samplePackets = 200;
        sim.maxCycles = 60000;
    }
};

TEST_F(ResumeFixture, PrefixResumeMergesBitIdenticallyAtAnyJobs)
{
    const auto fresh = Sweep::overRates(net, traffic, sim, rates,
                                        SweepOptions::withJobs(1));

    // Journal a full run, then resume from every possible prefix —
    // the "killed after cell k" cases — at a different job count.
    const std::string path = tmpPath("resume_prefix.journal");
    const std::uint64_t fp =
        core::sweepFingerprint(net, traffic, sim, rates, 1);
    {
        core::CheckpointJournal j(path, fp, false);
        SweepOptions o = SweepOptions::withJobs(2);
        o.journal = &j;
        Sweep::overRates(net, traffic, sim, rates, o);
    }
    const core::CheckpointLoad full = core::loadCheckpoint(path, fp);
    ASSERT_EQ(full.entries.size(), rates.size());

    for (std::size_t keep = 0; keep <= full.entries.size(); ++keep) {
        SCOPED_TRACE("prefix " + std::to_string(keep));
        std::vector<core::CheckpointEntry> prefix(
            full.entries.begin(),
            full.entries.begin() + static_cast<long>(keep));
        SweepOptions o = SweepOptions::withJobs(4);
        o.resume = &prefix;
        const auto resumed =
            Sweep::overRates(net, traffic, sim, rates, o);
        ASSERT_EQ(resumed.size(), fresh.size());
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            SCOPED_TRACE("point " + std::to_string(i));
            expectReportsEqual(resumed[i].report, fresh[i].report);
            EXPECT_FALSE(resumed[i].failed());
            // Entries found in the journal are marked as cached.
            bool cached = false;
            for (const auto& e : prefix)
                cached = cached || e.rateIndex == i;
            EXPECT_EQ(resumed[i].fromCheckpoint, cached);
        }
    }
    std::remove(path.c_str());
}

TEST_F(ResumeFixture, AveragedResumeMergesBitIdentically)
{
    const unsigned seeds = 2;
    const auto fresh = Sweep::average(
        Sweep::overRates(net, traffic, sim, rates,
                         SweepOptions::withJobs(1), seeds),
        seeds);

    const std::string path = tmpPath("resume_avg.journal");
    const std::uint64_t fp =
        core::sweepFingerprint(net, traffic, sim, rates, seeds);
    {
        core::CheckpointJournal j(path, fp, false);
        SweepOptions o = SweepOptions::withJobs(3);
        o.journal = &j;
        Sweep::overRates(net, traffic, sim, rates, o, seeds);
    }
    const core::CheckpointLoad full = core::loadCheckpoint(path, fp);
    ASSERT_EQ(full.entries.size(), rates.size() * seeds);

    // Resume from a half-journal: every mean must come out with the
    // identical bits (the merge re-accumulates in seed order, partly
    // from cache, partly from fresh runs).
    std::vector<core::CheckpointEntry> half(
        full.entries.begin(),
        full.entries.begin() +
            static_cast<long>(full.entries.size() / 2));
    SweepOptions o = SweepOptions::withJobs(2);
    o.resume = &half;
    const auto resumed = Sweep::average(
        Sweep::overRates(net, traffic, sim, rates, o, seeds), seeds);
    ASSERT_EQ(resumed.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        SCOPED_TRACE("rate " + std::to_string(i));
        EXPECT_EQ(resumed[i].meanLatency, fresh[i].meanLatency);
        EXPECT_EQ(resumed[i].minLatency, fresh[i].minLatency);
        EXPECT_EQ(resumed[i].maxLatency, fresh[i].maxLatency);
        EXPECT_EQ(resumed[i].meanPowerWatts, fresh[i].meanPowerWatts);
        EXPECT_EQ(resumed[i].meanThroughput, fresh[i].meanThroughput);
        EXPECT_EQ(resumed[i].allCompleted, fresh[i].allCompleted);
        EXPECT_EQ(resumed[i].failedSeeds, fresh[i].failedSeeds);
        EXPECT_EQ(resumed[i].ranSeeds, seeds);
    }
    std::remove(path.c_str());
}

TEST_F(ResumeFixture, FailedCellsAreJournaledAndResumed)
{
    // A deterministic check failure (the poison drill) is a
    // deterministic outcome: journaled, and resumed as the same
    // structured failure without rerunning.
    sim.debugPoisonRate = 0.04;
    const std::string path = tmpPath("resume_failed.journal");
    const std::uint64_t fp =
        core::sweepFingerprint(net, traffic, sim, rates, 1);
    {
        core::CheckpointJournal j(path, fp, false);
        SweepOptions o = SweepOptions::withJobs(1);
        o.journal = &j;
        const auto pts = Sweep::overRates(net, traffic, sim, rates, o);
        ASSERT_TRUE(pts[1].failed());
        EXPECT_EQ(pts[1].attempts, 2u);
    }
    const core::CheckpointLoad load = core::loadCheckpoint(path, fp);
    ASSERT_EQ(load.entries.size(), rates.size());
    const SweepPoint& failed = load.entries[1].point;
    EXPECT_TRUE(failed.failed());
    EXPECT_EQ(failed.attempts, 2u);
    EXPECT_EQ(failed.report.stopReason, StopReason::CheckFailure);
    EXPECT_NE(failed.failureForensics.find("\"reason\""),
              std::string::npos);

    SweepOptions o = SweepOptions::withJobs(1);
    o.resume = &load.entries;
    const auto resumed = Sweep::overRates(net, traffic, sim, rates, o);
    ASSERT_TRUE(resumed[1].failed());
    EXPECT_TRUE(resumed[1].fromCheckpoint);
    EXPECT_EQ(resumed[1].failureMessage, failed.failureMessage);
}

// --- deadlines and cancellation ---------------------------------------

TEST(CancelToken, FirstCauseWinsAndParentChains)
{
    core::CancelToken parent;
    core::CancelToken child(&parent);
    EXPECT_FALSE(child.cancelled());
    EXPECT_EQ(child.cause(), core::CancelCause::None);

    parent.cancel(core::CancelCause::Interrupt);
    EXPECT_TRUE(child.cancelled());
    EXPECT_EQ(child.cause(), core::CancelCause::Interrupt);

    // The child's own (later) cause does not override the sticky
    // first cause seen through the chain... but its own slot wins
    // when set first.
    core::CancelToken own;
    own.cancel(core::CancelCause::Deadline);
    own.cancel(core::CancelCause::Interrupt);
    EXPECT_EQ(own.cause(), core::CancelCause::Deadline);
}

TEST(CancelToken, ArmedDeadlinePromotesViaPoll)
{
    core::CancelToken t;
    t.armDeadline(-1.0); // no-op
    t.poll();
    EXPECT_FALSE(t.cancelled());

    t.armDeadline(1e-9);
    t.poll();
    EXPECT_TRUE(t.cancelled());
    EXPECT_EQ(t.cause(), core::CancelCause::Deadline);
}

TEST_F(ResumeFixture, DeadlineStopsPointAndIsNeverJournaled)
{
    // A deadline that expires at the first poll: the point stops
    // cooperatively, reports StopReason::Deadline with forensics, is
    // not retried, and is NOT journaled (a wall-clock outcome must
    // rerun on resume).
    sim.maxCycles = 50'000'000; // would run a long time
    const std::vector<double> one_rate = {0.05};
    const std::string path = tmpPath("deadline.journal");
    const std::uint64_t fp =
        core::sweepFingerprint(net, traffic, sim, one_rate, 1);
    {
        core::CheckpointJournal j(path, fp, false);
        SweepOptions o = SweepOptions::withJobs(1);
        o.journal = &j;
        o.pointTimeoutSeconds = 1e-9;
        const auto pts =
            Sweep::overRates(net, traffic, sim, one_rate, o);
        ASSERT_EQ(pts.size(), 1u);
        ASSERT_TRUE(pts[0].failed());
        EXPECT_EQ(pts[0].report.stopReason, StopReason::Deadline);
        EXPECT_EQ(pts[0].attempts, 1u); // deadlines are not retried
        EXPECT_NE(pts[0].failureForensics.find("\"reason\""),
                  std::string::npos);
    }
    const core::CheckpointLoad load = core::loadCheckpoint(path, fp);
    EXPECT_TRUE(load.entries.empty());
    std::remove(path.c_str());
}

TEST_F(ResumeFixture, CancelledSweepLeavesUndispensedCellsUnran)
{
    core::CancelToken cancel;
    cancel.cancel(core::CancelCause::Interrupt);
    SweepOptions o = SweepOptions::withJobs(1);
    o.cancel = &cancel;
    const auto pts = Sweep::overRates(net, traffic, sim, rates, o);
    ASSERT_EQ(pts.size(), rates.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        EXPECT_FALSE(pts[i].ran);
        EXPECT_EQ(pts[i].injectionRate, rates[i]);
    }
}

// --- retry rule -------------------------------------------------------

TEST_F(ResumeFixture, RetryRuleGivesACellTwoAttempts)
{
    sim.debugPoisonRate = 0.04;

    // A transient check failure recovers on the second attempt.
    sim.debugPoisonTransient = true; // clean on any retry
    const auto transient = Sweep::overRates(net, traffic, sim, {0.04},
                                            SweepOptions::withJobs(1));
    EXPECT_FALSE(transient[0].failed());
    EXPECT_EQ(transient[0].attempts, 2u);

    // A persistent one fails after the second.
    sim.debugPoisonTransient = false;
    const auto persistent = Sweep::overRates(net, traffic, sim, {0.04},
                                             SweepOptions::withJobs(1));
    ASSERT_TRUE(persistent[0].failed());
    EXPECT_EQ(persistent[0].report.stopReason, StopReason::CheckFailure);
    EXPECT_EQ(persistent[0].attempts, 2u);
}

TEST_F(ResumeFixture, AveragedSweepRecordsAttemptsPerSeed)
{
    sim.debugPoisonRate = 0.04;
    sim.debugPoisonTransient = true;
    const auto cells = Sweep::overRates(
        net, traffic, sim, {0.02, 0.04}, SweepOptions::withJobs(2), 2);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].attempts, 1u);
    EXPECT_EQ(cells[1].attempts, 1u);
    // Every seed of the poisoned rate spent its retry and recovered.
    EXPECT_EQ(cells[2].attempts, 2u);
    EXPECT_EQ(cells[3].attempts, 2u);
    const auto pts = Sweep::average(cells, 2);
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_EQ(pts[0].attempts, 2u);
    EXPECT_EQ(pts[1].attempts, 4u);
    EXPECT_EQ(pts[1].failedSeeds, 0u);
    EXPECT_TRUE(pts[1].allCompleted);
    EXPECT_EQ(pts[1].ranSeeds, 2u);
}

} // namespace
