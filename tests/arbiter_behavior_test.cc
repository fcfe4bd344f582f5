/**
 * @file
 * Tests for the behavioural arbiters: single-grant guarantee,
 * least-recently-served fairness of the matrix arbiter, round-robin
 * rotation, and the switching-activity deltas they report.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "router/arbiter.hh"
#include "sim/rng.hh"

namespace {

using namespace orion::router;

/** The packed request words asserting @p asserted among @p n. */
std::vector<std::uint64_t>
reqs(std::initializer_list<int> asserted, unsigned n)
{
    std::vector<std::uint64_t> v(Arbiter::wordsFor(n), 0);
    for (int i : asserted)
        v[static_cast<unsigned>(i) / 64] |= std::uint64_t{1} << (i % 64);
    return v;
}

TEST(MatrixArbiter, NoRequestsNoWinner)
{
    MatrixArbiter arb(4);
    const auto res = arb.arbitrate(reqs({}, 4));
    EXPECT_EQ(res.winner, -1);
    EXPECT_EQ(res.deltaPri, 0u);
}

TEST(MatrixArbiter, SingleRequestWins)
{
    MatrixArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(reqs({2}, 4)).winner, 2);
}

TEST(MatrixArbiter, InitialOrderPrefersLowerIndex)
{
    MatrixArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(reqs({1, 3}, 4)).winner, 1);
}

TEST(MatrixArbiter, WinnerDropsToLowestPriority)
{
    MatrixArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 4)).winner, 0);
    // 0 just won, so 1 now beats 0.
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 4)).winner, 1);
    // Both have won once; 0 was the least recent winner.
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 4)).winner, 0);
}

TEST(MatrixArbiter, IsLeastRecentlyServedUnderContention)
{
    // With all four requesting continuously, grants must cycle through
    // all requesters with perfect fairness.
    MatrixArbiter arb(4);
    std::vector<int> grants(4, 0);
    for (int i = 0; i < 400; ++i) {
        const auto res = arb.arbitrate(reqs({0, 1, 2, 3}, 4));
        ASSERT_GE(res.winner, 0);
        ++grants[static_cast<unsigned>(res.winner)];
    }
    for (const int g : grants)
        EXPECT_EQ(g, 100);
}

TEST(MatrixArbiter, AlwaysGrantsExactlyOneUnderRandomRequests)
{
    // Property: the priority matrix must remain a total order, so any
    // non-empty request set yields exactly one winner, and the winner
    // must have requested.
    MatrixArbiter arb(6);
    orion::sim::Rng rng(17);
    for (int t = 0; t < 2000; ++t) {
        std::uint64_t r = 0;
        for (unsigned i = 0; i < 6; ++i)
            r |= static_cast<std::uint64_t>(rng.chance(0.4)) << i;
        const auto res = arb.arbitrate({&r, 1});
        if (r != 0) {
            ASSERT_GE(res.winner, 0);
            EXPECT_TRUE(r >> res.winner & 1);
        } else {
            EXPECT_EQ(res.winner, -1);
        }
    }
}

TEST(MatrixArbiter, PriorityMatrixStaysAntisymmetric)
{
    MatrixArbiter arb(5);
    orion::sim::Rng rng(23);
    for (int t = 0; t < 500; ++t) {
        std::uint64_t r = 0;
        for (unsigned i = 0; i < 5; ++i)
            r |= static_cast<std::uint64_t>(rng.chance(0.5)) << i;
        arb.arbitrate({&r, 1});
        for (unsigned i = 0; i < 5; ++i)
            for (unsigned j = i + 1; j < 5; ++j)
                EXPECT_NE(arb.hasPriority(i, j), arb.hasPriority(j, i));
    }
}

TEST(MatrixArbiter, DeltaReqCountsChangedLines)
{
    MatrixArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 4)).deltaReq, 2u);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 4)).deltaReq, 0u);
    EXPECT_EQ(arb.arbitrate(reqs({2}, 4)).deltaReq, 3u);
}

TEST(MatrixArbiter, DeltaPriCountsToggledFlipFlops)
{
    MatrixArbiter arb(4);
    // Requester 0 starts above everyone; on winning, its 3 priority
    // pairs all flip.
    EXPECT_EQ(arb.arbitrate(reqs({0}, 4)).deltaPri, 3u);
    // Winning again flips nothing (already at the bottom).
    EXPECT_EQ(arb.arbitrate(reqs({0}, 4)).deltaPri, 0u);
}

TEST(RoundRobinArbiter, RotatesUnderContention)
{
    RoundRobinArbiter arb(3);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1, 2}, 3)).winner, 0);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1, 2}, 3)).winner, 1);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1, 2}, 3)).winner, 2);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1, 2}, 3)).winner, 0);
}

TEST(RoundRobinArbiter, SkipsIdleRequesters)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(reqs({2}, 4)).winner, 2);
    // Token now at 3; requester 1 is next in cyclic order.
    EXPECT_EQ(arb.arbitrate(reqs({1}, 4)).winner, 1);
}

TEST(RoundRobinArbiter, TokenMoveTogglesTwoFlipFlops)
{
    RoundRobinArbiter arb(4);
    const auto res = arb.arbitrate(reqs({0}, 4));
    EXPECT_EQ(res.winner, 0);
    EXPECT_EQ(res.deltaPri, 2u);
    EXPECT_EQ(arb.token(), 1u);
}

TEST(RoundRobinArbiter, NoWinnerKeepsToken)
{
    RoundRobinArbiter arb(4);
    arb.arbitrate(reqs({0}, 4));
    const unsigned tok = arb.token();
    const auto res = arb.arbitrate(reqs({}, 4));
    EXPECT_EQ(res.winner, -1);
    EXPECT_EQ(arb.token(), tok);
    EXPECT_EQ(res.deltaPri, 0u);
}

TEST(RoundRobinArbiter, IsFairUnderContention)
{
    RoundRobinArbiter arb(5);
    std::vector<int> grants(5, 0);
    for (int i = 0; i < 500; ++i) {
        const auto res = arb.arbitrate(reqs({0, 1, 2, 3, 4}, 5));
        ++grants[static_cast<unsigned>(res.winner)];
    }
    for (const int g : grants)
        EXPECT_EQ(g, 100);
}

} // namespace
