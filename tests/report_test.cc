/**
 * @file
 * Tests for the stop table and the table/CSV report formatting
 * helpers.
 */

#include <gtest/gtest.h>

#include "core/report.hh"

namespace {

using namespace orion::report;

TEST(StopTable, PinsWhatEachStopReasonMeans)
{
    using orion::StopReason;
    // name, failed, retried, journaled, orion_sim's exit code.
    const struct
    {
        StopReason reason;
        const char* name;
        bool failed, retried, journaled;
        int exitCode;
    } rows[] = {
        {StopReason::Completed, "completed", false, false, true, 0},
        {StopReason::MaxCycles, "max-cycles", false, false, true, 0},
        {StopReason::WatchdogStall, "watchdog-stall", false, false, true, 2},
        {StopReason::CheckFailure, "check-failure", true, true, true, 3},
        {StopReason::DeadlockUnrecovered, "deadlock-unrecovered", false,
         false, true, 2},
        {StopReason::Deadline, "deadline", true, false, false, 6},
        {StopReason::Interrupted, "interrupted", true, false, false, 5},
        {StopReason::WorkerCrash, "worker-crash", true, true, true, 3},
    };
    for (const auto& row : rows) {
        const orion::StopRule& rule = orion::stopRule(row.reason);
        EXPECT_STREQ(rule.name, row.name);
        EXPECT_STREQ(orion::stopReasonName(row.reason), row.name);
        EXPECT_EQ(rule.failed, row.failed) << row.name;
        EXPECT_EQ(rule.retried, row.retried) << row.name;
        EXPECT_EQ(rule.journaled, row.journaled) << row.name;
        EXPECT_EQ(rule.exitCode, row.exitCode) << row.name;
    }
}

TEST(Fmt, FixedPrecision)
{
    EXPECT_EQ(fmt(1.23456, 2), "1.23");
    EXPECT_EQ(fmt(1.0, 0), "1");
    EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(FmtEng, PicksEngineeringPrefix)
{
    EXPECT_EQ(fmtEng(1.5e-12, "J", 2), "1.50 pJ");
    EXPECT_EQ(fmtEng(2.0e-15, "F", 1), "2.0 fF");
    EXPECT_EQ(fmtEng(3.0e9, "Hz", 0), "3 GHz");
    EXPECT_EQ(fmtEng(0.25, "W", 2), "250.00 mW");
    EXPECT_EQ(fmtEng(12.0, "W", 1), "12.0 W");
}

TEST(FmtEng, HandlesZeroAndNegative)
{
    EXPECT_EQ(fmtEng(0.0, "J", 2), "0.00 J");
    EXPECT_EQ(fmtEng(-1.5e-3, "A", 1), "-1.5 mA");
}

TEST(Table, FormatsAligned)
{
    Table t;
    t.title = "demo";
    t.headers = {"name", "value"};
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string s = formatTable(t);
    EXPECT_NE(s.find("== demo =="), std::string::npos);
    EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
    EXPECT_NE(s.find("| b     | 22    |"), std::string::npos);
    EXPECT_NE(s.find("+-------+-------+"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t;
    t.headers = {"a", "b", "c"};
    t.addRow({"1", "2", "3"});
    EXPECT_EQ(formatCsv(t), "a,b,c\n1,2,3\n");
}

TEST(TableDeath, RowArityChecked)
{
    Table t;
    t.headers = {"a", "b"};
    EXPECT_DEATH(t.addRow({"only-one"}), "row.size");
}

} // namespace
