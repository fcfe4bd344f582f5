/**
 * @file
 * Tests for the invariant-check subsystem (base/check.hh) and the
 * network-wide audits (net/audit.hh).
 *
 * The positive tests prove the audits hold on healthy networks of all
 * three router kinds. The negative tests are the important ones: they
 * corrupt the simulator's bookkeeping through test-only hooks and
 * assert that the audits *detect* the corruption with a diagnostic
 * naming the offending node/port — an audit that can't fail is just
 * overhead.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "base/check.hh"
#include "core/config.hh"
#include "core/simulation.hh"
#include "net/audit.hh"
#include "router/vc_router.hh"

namespace {

using namespace orion;
using core::CheckFailure;
using core::CheckLevel;

/** Restore the global check level after each test. */
class AuditTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        saved_ = core::checkLevel();
        core::setCheckLevel(CheckLevel::Paranoid);
    }
    void TearDown() override { core::setCheckLevel(saved_); }

  private:
    CheckLevel saved_ = CheckLevel::Cheap;
};

TrafficConfig
uniformTraffic(double rate)
{
    TrafficConfig t;
    t.pattern = net::TrafficPattern::UniformRandom;
    t.injectionRate = rate;
    return t;
}

SimConfig
shortRun()
{
    SimConfig s;
    s.warmupCycles = 200;
    s.samplePackets = 200;
    s.maxCycles = 50000;
    s.auditCycles = 64;
    return s;
}

TEST_F(AuditTest, CheckLevelClampsToCompiledMax)
{
    core::setCheckLevel(CheckLevel::Paranoid);
    EXPECT_LE(static_cast<int>(core::checkLevel()),
              static_cast<int>(core::compiledCheckLevel()));
}

TEST_F(AuditTest, CheckMacroThrowsWithContext)
{
    const int port = 3;
    try {
        ORION_CHECK(1 + 1 == 3, "demo failure at port " << port);
        FAIL() << "expected CheckFailure";
    } catch (const CheckFailure& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("demo failure at port 3"), std::string::npos)
            << what;
        EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos) << what;
        EXPECT_NE(what.find("audit_test.cc"), std::string::npos) << what;
    }
}

TEST_F(AuditTest, CheckMacroInactiveWhenOff)
{
    core::setCheckLevel(CheckLevel::Off);
    EXPECT_NO_THROW(ORION_CHECK(false, "must not fire"));
    EXPECT_NO_THROW(ORION_AUDIT(false, "must not fire"));
}

TEST_F(AuditTest, AuditMacroNeedsParanoid)
{
    core::setCheckLevel(CheckLevel::Cheap);
    EXPECT_NO_THROW(ORION_AUDIT(false, "paranoid-only"));
    EXPECT_THROW(ORION_CHECK(false, "cheap fires"), CheckFailure);
}

/** Run a healthy simulation: every periodic + final audit must pass. */
void
expectCleanRun(const NetworkConfig& cfg)
{
    Simulation s(cfg, uniformTraffic(0.05), shortRun());
    // Three ledger audits plus the paranoid-only VC-mask audit.
    EXPECT_EQ(s.simulator().auditCount(), 4u);
    const Report r = s.run();
    EXPECT_TRUE(r.completed);
    EXPECT_NO_THROW(s.auditor().auditAll());
}

TEST_F(AuditTest, HealthyVcNetworkPassesAllAudits)
{
    expectCleanRun(NetworkConfig::vc16());
}

TEST_F(AuditTest, HealthyWormholeNetworkPassesAllAudits)
{
    expectCleanRun(NetworkConfig::wh64());
}

TEST_F(AuditTest, HealthyCentralBufferNetworkPassesAllAudits)
{
    expectCleanRun(NetworkConfig::cb());
}

TEST_F(AuditTest, CorruptedCreditIsDetectedAndLocalized)
{
    Simulation s(NetworkConfig::vc16(), uniformTraffic(0.05), shortRun());
    s.step(500);
    EXPECT_NO_THROW(s.auditor().auditCreditAccounting());

    // Steal one sender-side credit at node 5, output port 2, VC 1.
    s.network().router(5).debugCorruptCredit(2, 1);
    try {
        s.auditor().auditCreditAccounting();
        FAIL() << "credit audit missed a corrupted counter";
    } catch (const CheckFailure& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("credit accounting violated"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("node 5 port 2"), std::string::npos) << what;
        EXPECT_NE(what.find("vc 1"), std::string::npos) << what;
    }
}

TEST_F(AuditTest, DroppedFlitIsDetectedAndLocalized)
{
    Simulation s(NetworkConfig::vc16(), uniformTraffic(0.1), shortRun());

    // Advance until some router holds a buffered flit we can drop.
    const unsigned nodes = s.network().topology().numNodes();
    auto* victim = static_cast<router::CrossbarRouter*>(nullptr);
    int victim_node = -1;
    unsigned victim_port = 0;
    unsigned victim_vc = 0;
    for (int tries = 0; tries < 2000 && victim == nullptr; ++tries) {
        s.step(1);
        for (unsigned n = 0; n < nodes && victim == nullptr; ++n) {
            auto& r = dynamic_cast<router::CrossbarRouter&>(
                s.network().router(static_cast<int>(n)));
            for (unsigned p = 0; p < r.params().ports; ++p) {
                for (unsigned v = 0; v < r.params().vcs; ++v) {
                    if (!r.inputFifo(p, v).empty()) {
                        victim = &r;
                        victim_node = static_cast<int>(n);
                        victim_port = p;
                        victim_vc = v;
                        break;
                    }
                }
                if (victim != nullptr)
                    break;
            }
        }
    }
    ASSERT_NE(victim, nullptr) << "no buffered flit found to drop";
    EXPECT_NO_THROW(s.auditor().auditFlitConservation());

    victim->debugDropFlit(victim_port, victim_vc);
    try {
        s.auditor().auditFlitConservation();
        FAIL() << "conservation audit missed a dropped flit";
    } catch (const CheckFailure& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("flit conservation violated"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("node " + std::to_string(victim_node)),
                  std::string::npos)
            << what;
    }
}

TEST_F(AuditTest, CorruptionIsInvisibleWhenChecksAreOff)
{
    Simulation s(NetworkConfig::vc16(), uniformTraffic(0.05), shortRun());
    s.step(500);
    s.network().router(5).debugCorruptCredit(2, 1);

    core::setCheckLevel(CheckLevel::Off);
    EXPECT_NO_THROW(s.auditor().auditAll());
    core::setCheckLevel(CheckLevel::Paranoid);
    EXPECT_THROW(s.auditor().auditCreditAccounting(), CheckFailure);
}

TEST_F(AuditTest, EnergyBaselineSurvivesMonitorReset)
{
    Simulation s(NetworkConfig::vc16(), uniformTraffic(0.05), shortRun());
    s.step(500);
    EXPECT_NO_THROW(s.auditor().auditEnergyAccounting());

    // A monitor reset rewinds the counters; without a baseline reset
    // the monotonicity check would fire.
    s.monitor().reset();
    EXPECT_THROW(s.auditor().auditEnergyAccounting(), CheckFailure);
    s.auditor().resetEnergyBaseline();
    EXPECT_NO_THROW(s.auditor().auditEnergyAccounting());
}

TEST_F(AuditTest, LedgersBalanceUnderInjectedFaults)
{
    // With fault injection discarding flits mid-network, the
    // conservation ledgers must still balance at every paranoid audit:
    // discards are a named column, not a leak, and the resynchronized
    // credits must keep the credit equation exact.
    SimConfig s = shortRun();
    s.fault.linkBitErrorRate = 5e-6;
    s.fault.outages.push_back({.start = 400, .end = 600, .link = -1});
    Simulation sim(NetworkConfig::vc16(), uniformTraffic(0.05), s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed) << r.checkFailureDiagnostic;
    EXPECT_GT(r.flitsDiscarded, 0u);

    std::uint64_t discarded = 0;
    const unsigned nodes = sim.network().topology().numNodes();
    for (unsigned n = 0; n < nodes; ++n)
        discarded +=
            sim.network().router(static_cast<int>(n)).flitsDiscarded();
    EXPECT_EQ(discarded, r.flitsDiscarded);
    EXPECT_NO_THROW(sim.auditor().auditAll());
}

TEST_F(AuditTest, AuditsAreNotRegisteredWhenChecksOff)
{
    core::setCheckLevel(CheckLevel::Off);
    Simulation s(NetworkConfig::vc16(), uniformTraffic(0.05), shortRun());
    EXPECT_EQ(s.simulator().auditCount(), 0u);
}

} // namespace
