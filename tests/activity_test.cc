/**
 * @file
 * Unit tests for switching-activity primitives (BitVec, Hamming
 * distance, bitline/cell delta computation), including BitVec copies
 * and moves between inline and heap storage.
 */

#include <gtest/gtest.h>

#include "power/activity.hh"
#include "sim/rng.hh"

namespace {

using orion::power::BitVec;
using orion::power::flippedCells;
using orion::power::hammingDistance;
using orion::power::switchingWriteBitlines;

TEST(BitVec, ConstructsZeroed)
{
    const BitVec v(128);
    EXPECT_EQ(v.width(), 128u);
    EXPECT_EQ(v.wordCount(), 2u);
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, LowWordConstructor)
{
    const BitVec v(64, 0xff);
    EXPECT_EQ(v.popcount(), 8u);
    EXPECT_TRUE(v.bit(0));
    EXPECT_TRUE(v.bit(7));
    EXPECT_FALSE(v.bit(8));
}

TEST(BitVec, TopWordMaskedToWidth)
{
    BitVec v(4, 0xff);
    EXPECT_EQ(v.popcount(), 4u);
    v.setWord(0, ~0ull);
    EXPECT_EQ(v.popcount(), 4u);
}

TEST(BitVec, SetBitRoundTrips)
{
    BitVec v(100);
    v.setBit(99, true);
    v.setBit(0, true);
    EXPECT_TRUE(v.bit(99));
    EXPECT_TRUE(v.bit(0));
    EXPECT_EQ(v.popcount(), 2u);
    v.setBit(99, false);
    EXPECT_FALSE(v.bit(99));
    EXPECT_EQ(v.popcount(), 1u);
}

TEST(BitVec, EqualityComparesContent)
{
    BitVec a(64, 5);
    BitVec b(64, 5);
    EXPECT_EQ(a, b);
    b.setBit(3, true);
    EXPECT_NE(a, b);
}

TEST(Hamming, ZeroForIdentical)
{
    const BitVec a(256, 0xdeadbeef);
    EXPECT_EQ(hammingDistance(a, a), 0u);
}

TEST(Hamming, CountsDifferingBits)
{
    const BitVec a(64, 0b1010);
    const BitVec b(64, 0b0110);
    EXPECT_EQ(hammingDistance(a, b), 2u);
}

TEST(Hamming, FullWidthComplement)
{
    BitVec a(96);
    BitVec b(96);
    for (unsigned i = 0; i < 96; ++i)
        b.setBit(i, true);
    EXPECT_EQ(hammingDistance(a, b), 96u);
}

TEST(Hamming, IsSymmetric)
{
    orion::sim::Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        BitVec a(200);
        BitVec b(200);
        for (std::size_t w = 0; w < a.wordCount(); ++w) {
            a.setWord(w, rng.next());
            b.setWord(w, rng.next());
        }
        EXPECT_EQ(hammingDistance(a, b), hammingDistance(b, a));
    }
}

TEST(Hamming, TriangleInequality)
{
    orion::sim::Rng rng(13);
    for (int trial = 0; trial < 20; ++trial) {
        BitVec a(128);
        BitVec b(128);
        BitVec c(128);
        for (std::size_t w = 0; w < a.wordCount(); ++w) {
            a.setWord(w, rng.next());
            b.setWord(w, rng.next());
            c.setWord(w, rng.next());
        }
        EXPECT_LE(hammingDistance(a, c),
                  hammingDistance(a, b) + hammingDistance(b, c));
    }
}

TEST(Deltas, WriteBitlinesVsLastWrittenDatum)
{
    const BitVec last(32, 0x0f);
    const BitVec next(32, 0xf0);
    EXPECT_EQ(switchingWriteBitlines(next, last), 8u);
}

TEST(Deltas, FlippedCellsVsOldRow)
{
    const BitVec old_row(32, 0xffffffff);
    const BitVec next(32, 0xffff0000);
    EXPECT_EQ(flippedCells(next, old_row), 16u);
}

TEST(BitVec, WideVectorsUseHeapPathCorrectly)
{
    // Widths beyond the 256-bit inline capacity exercise the heap
    // storage path: all operations must behave identically.
    orion::sim::Rng rng(21);
    BitVec a(512);
    BitVec b(512);
    for (std::size_t w = 0; w < a.wordCount(); ++w) {
        a.setWord(w, rng.next());
        b.setWord(w, rng.next());
    }
    EXPECT_EQ(a.wordCount(), 8u);
    EXPECT_GT(hammingDistance(a, b), 0u);
    EXPECT_EQ(hammingDistance(a, a), 0u);

    // Copy and move semantics across the storage boundary.
    BitVec copy = a;
    EXPECT_EQ(copy, a);
    copy.setBit(500, !copy.bit(500));
    EXPECT_NE(copy, a);
    EXPECT_EQ(hammingDistance(copy, a), 1u);

    BitVec moved = std::move(copy);
    EXPECT_EQ(hammingDistance(moved, a), 1u);

    // Assign wide into narrow and narrow into wide.
    BitVec narrow(64, 0xff);
    narrow = a;
    EXPECT_EQ(narrow, a);
    BitVec wide(512);
    wide = BitVec(32, 0x7);
    EXPECT_EQ(wide.width(), 32u);
    EXPECT_EQ(wide.popcount(), 3u);
}

/** A @p width-bit vector of random words drawn from seed @p seed. */
BitVec
randomVec(unsigned width, std::uint64_t seed)
{
    orion::sim::Rng rng(seed);
    BitVec v(width);
    for (std::size_t w = 0; w < v.wordCount(); ++w)
        v.setWord(w, rng.next());
    return v;
}

// Widths on both sides of the 256-bit inline capacity.
constexpr unsigned kInline = 200;
constexpr unsigned kWide = 520;

TEST(BitVec, MoveAssignAcrossStorageKinds)
{
    for (const unsigned to : {kInline, kWide}) {
        for (const unsigned from : {kInline, kWide}) {
            SCOPED_TRACE(testing::Message() << from << " -> " << to);
            const BitVec want = randomVec(from, from);
            BitVec dst = randomVec(to, 1);
            BitVec src = want;
            dst = std::move(src);
            EXPECT_EQ(dst, want);
            EXPECT_EQ(dst.popcount(), want.popcount());
            // A moved-from vector is empty.
            EXPECT_EQ(src.width(), 0u);
            EXPECT_EQ(src.wordCount(), 0u);
        }
    }
}

TEST(BitVec, CopyAssignAcrossStorageKinds)
{
    for (const unsigned to : {kInline, kWide}) {
        for (const unsigned from : {kInline, kWide}) {
            SCOPED_TRACE(testing::Message() << from << " -> " << to);
            const BitVec src = randomVec(from, from);
            BitVec dst = randomVec(to, 1);
            dst = src;
            EXPECT_EQ(dst, src);
            // The copy owns its words.
            dst.setBit(from - 1, !dst.bit(from - 1));
            EXPECT_EQ(hammingDistance(dst, src), 1u);
            EXPECT_EQ(src, randomVec(from, from));
        }
    }
}

TEST(BitVec, MovedFromVectorIsReusable)
{
    for (const unsigned width : {kInline, kWide}) {
        SCOPED_TRACE(width);
        BitVec a = randomVec(width, 3);
        const BitVec b = std::move(a);
        EXPECT_EQ(b, randomVec(width, 3));
        EXPECT_EQ(BitVec(a).width(), 0u); // copying an empty vector

        // Refill by move, wide and inline alike, then by copy.
        for (const unsigned next : {kWide, kInline, kWide}) {
            a = randomVec(next, next);
            EXPECT_EQ(a, randomVec(next, next));
            BitVec c(std::move(a));
            EXPECT_EQ(c, randomVec(next, next));
            EXPECT_EQ(a.width(), 0u);
        }
        a = b;
        EXPECT_EQ(a, b);
        a.setBit(0, !a.bit(0));
        EXPECT_EQ(hammingDistance(a, b), 1u);
    }
}

TEST(BitVec, SelfMoveKeepsTheValue)
{
    for (const unsigned width : {kInline, kWide}) {
        BitVec v = randomVec(width, 9);
        BitVec& alias = v;
        v = std::move(alias);
        EXPECT_EQ(v, randomVec(width, 9));
    }
}

TEST(BitVec, SelfAssignmentIsSafe)
{
    BitVec v(100);
    v.setBit(42, true);
    v = *&v;
    EXPECT_TRUE(v.bit(42));
    EXPECT_EQ(v.popcount(), 1u);
}

TEST(Deltas, RandomDataAveragesHalfWidth)
{
    // Statistical property: random-vs-random Hamming distance averages
    // W/2 (this is what makes avg-activity estimates use F/2).
    orion::sim::Rng rng(99);
    const unsigned width = 256;
    double total = 0.0;
    const int trials = 2000;
    for (int t = 0; t < trials; ++t) {
        BitVec a(width);
        BitVec b(width);
        for (std::size_t w = 0; w < a.wordCount(); ++w) {
            a.setWord(w, rng.next());
            b.setWord(w, rng.next());
        }
        total += hammingDistance(a, b);
    }
    EXPECT_NEAR(total / trials, width / 2.0, 3.0);
}

} // namespace
