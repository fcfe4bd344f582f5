/**
 * @file
 * Tests for credit-based flow control state.
 */

#include <gtest/gtest.h>

#include "base/check.hh"
#include "router/credit.hh"

namespace {

using orion::core::CheckFailure;
using orion::router::CreditCounter;

TEST(CreditCounter, StartsFull)
{
    const CreditCounter c(2, 8);
    EXPECT_EQ(c.vcs(), 2u);
    EXPECT_EQ(c.available(0), 8u);
    EXPECT_EQ(c.available(1), 8u);
}

TEST(CreditCounter, ConsumeRestoreRoundTrip)
{
    CreditCounter c(1, 4);
    c.consume(0);
    c.consume(0);
    EXPECT_EQ(c.available(0), 2u);
    c.restore(0);
    EXPECT_EQ(c.available(0), 3u);
}

TEST(CreditCounter, VcsAreIndependent)
{
    CreditCounter c(3, 5);
    c.consume(1);
    c.consume(1);
    EXPECT_EQ(c.available(0), 5u);
    EXPECT_EQ(c.available(1), 3u);
    EXPECT_EQ(c.available(2), 5u);
}

TEST(CreditCounter, UnlimitedNeverDepletes)
{
    CreditCounter c(1, 0, /*unlimited=*/true);
    for (int i = 0; i < 1000; ++i)
        c.consume(0);
    EXPECT_GT(c.available(0), 1000000u);
    c.restore(0); // no-op, no overflow
}

TEST(CreditCounter, UnderflowThrows)
{
    CreditCounter c(1, 1);
    c.consume(0);
    EXPECT_THROW(c.consume(0), CheckFailure);
}

TEST(CreditCounter, OverflowThrows)
{
    CreditCounter c(1, 2);
    EXPECT_THROW(c.restore(0), CheckFailure);
}

TEST(CreditCounter, UnderflowMessageNamesVc)
{
    CreditCounter c(2, 4);
    for (int i = 0; i < 4; ++i)
        c.consume(1);
    try {
        c.consume(1);
        FAIL() << "expected CheckFailure";
    } catch (const CheckFailure& e) {
        EXPECT_NE(std::string(e.what()).find("credit underflow"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("VC 1"), std::string::npos)
            << e.what();
    }
}

} // namespace
