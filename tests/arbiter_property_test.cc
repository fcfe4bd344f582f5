/**
 * @file
 * Property test: the word-based behavioural arbiters against per-bit
 * reference models.
 *
 * The routers hand every arbiter its request set as packed 64-bit
 * words. The reference models below keep one bool per requester and
 * one loop per rule, exactly as the arbitration styles are described
 * (least-recently-served priority matrix, rotating round-robin token,
 * first-come queue). Long random request streams must produce the same
 * winner, deltaReq and deltaPri on every call, at requester counts on
 * both sides of each word boundary.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "router/arbiter.hh"
#include "sim/rng.hh"

namespace {

using namespace orion::router;

using Bits = std::vector<bool>;

/** Request lines that changed since @p last, which is then updated. */
unsigned
bitDelta(const Bits& reqs, Bits& last)
{
    unsigned n = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        n += reqs[i] != last[i];
    last = reqs;
    return n;
}

/** Per-bit model of a behavioural arbiter. */
class RefArbiter
{
  public:
    explicit RefArbiter(unsigned n) : n_(n), last_(n, false) {}
    virtual ~RefArbiter() = default;
    virtual ArbitrationResult arbitrate(const Bits& reqs) = 0;

  protected:
    unsigned n_;
    Bits last_;
};

/** prio[i][j]: i beats j. The winner beats every other requester and
 * then drops below everyone, one priority bit per pair it beat. */
class RefMatrix : public RefArbiter
{
  public:
    explicit RefMatrix(unsigned n) : RefArbiter(n), prio_(n, Bits(n))
    {
        for (unsigned i = 0; i < n; ++i)
            for (unsigned j = i + 1; j < n; ++j)
                prio_[i][j] = true;
    }

    ArbitrationResult
    arbitrate(const Bits& reqs) override
    {
        const unsigned delta_req = bitDelta(reqs, last_);
        int winner = -1;
        for (unsigned i = 0; i < n_ && winner < 0; ++i) {
            if (!reqs[i])
                continue;
            bool beaten = false;
            for (unsigned j = 0; j < n_; ++j)
                beaten = beaten || (j != i && reqs[j] && prio_[j][i]);
            if (!beaten)
                winner = static_cast<int>(i);
        }
        unsigned delta_pri = 0;
        if (winner >= 0) {
            const auto w = static_cast<unsigned>(winner);
            for (unsigned j = 0; j < n_; ++j) {
                if (j != w && prio_[w][j]) {
                    prio_[w][j] = false;
                    prio_[j][w] = true;
                    ++delta_pri;
                }
            }
        }
        return {winner, delta_req, delta_pri};
    }

  private:
    std::vector<Bits> prio_;
};

/** First request at or after the token; the token moves past it. */
class RefRoundRobin : public RefArbiter
{
  public:
    using RefArbiter::RefArbiter;

    ArbitrationResult
    arbitrate(const Bits& reqs) override
    {
        const unsigned delta_req = bitDelta(reqs, last_);
        int winner = -1;
        for (unsigned k = 0; k < n_ && winner < 0; ++k) {
            if (reqs[(token_ + k) % n_])
                winner = static_cast<int>((token_ + k) % n_);
        }
        unsigned delta_pri = 0;
        const unsigned next = (static_cast<unsigned>(winner) + 1) % n_;
        if (winner >= 0 && next != token_) {
            token_ = next;
            delta_pri = 2;
        }
        return {winner, delta_req, delta_pri};
    }

  private:
    unsigned token_ = 0;
};

/** New requests queue in index order; withdrawn fronts are dropped. */
class RefQueuing : public RefArbiter
{
  public:
    explicit RefQueuing(unsigned n) : RefArbiter(n), queued_(n, false) {}

    ArbitrationResult
    arbitrate(const Bits& reqs) override
    {
        const unsigned delta_req = bitDelta(reqs, last_);
        unsigned delta_pri = 0;
        for (unsigned i = 0; i < n_; ++i) {
            if (reqs[i] && !queued_[i]) {
                queue_.push_back(i);
                queued_[i] = true;
                ++delta_pri;
            }
        }
        int winner = -1;
        while (!queue_.empty() && winner < 0) {
            const unsigned front = queue_.front();
            queue_.pop_front();
            queued_[front] = false;
            if (reqs[front])
                winner = static_cast<int>(front);
        }
        return {winner, delta_req, delta_pri};
    }

  private:
    std::deque<unsigned> queue_;
    Bits queued_;
};

std::unique_ptr<RefArbiter>
makeReference(ArbiterKind kind, unsigned n)
{
    switch (kind) {
      case ArbiterKind::Matrix:
        return std::make_unique<RefMatrix>(n);
      case ArbiterKind::RoundRobin:
        return std::make_unique<RefRoundRobin>(n);
      case ArbiterKind::Queuing:
        return std::make_unique<RefQueuing>(n);
    }
    return nullptr;
}

std::vector<std::uint64_t>
pack(const Bits& bits)
{
    std::vector<std::uint64_t> words(Arbiter::wordsFor(
        static_cast<unsigned>(bits.size())));
    for (std::size_t i = 0; i < bits.size(); ++i)
        if (bits[i])
            words[i / 64] |= std::uint64_t{1} << (i % 64);
    return words;
}

/**
 * The next request set of a random stream. Each step picks one of:
 * all clear; a fresh random set at a random density; the previous set
 * with some requests withdrawn (those at the queue front included);
 * the previous set with some added; or requests confined to a single
 * 64-requester word, leaving the other words all zero.
 */
Bits
nextRequests(const Bits& prev, orion::sim::Rng& rng)
{
    const auto n = static_cast<unsigned>(prev.size());
    Bits r = prev;
    switch (rng.below(5)) {
      case 0:
        r.assign(n, false);
        break;
      case 1: {
        const double density = rng.uniform();
        for (unsigned i = 0; i < n; ++i)
            r[i] = rng.chance(density);
        break;
      }
      case 2:
        for (unsigned i = 0; i < n; ++i)
            r[i] = r[i] && rng.chance(0.6);
        break;
      case 3:
        for (unsigned i = 0; i < n; ++i)
            r[i] = r[i] || rng.chance(0.1);
        break;
      default: {
        const auto word = static_cast<unsigned>(
            rng.below(Arbiter::wordsFor(n)));
        r.assign(n, false);
        for (unsigned i = word * 64; i < n && i < word * 64 + 64; ++i)
            r[i] = rng.chance(0.5);
        break;
      }
    }
    return r;
}

class ArbiterMatchesBitModel
    : public ::testing::TestWithParam<std::tuple<ArbiterKind, unsigned>>
{
};

TEST_P(ArbiterMatchesBitModel, OnLongRandomStreams)
{
    const auto [kind, n] = GetParam();
    const auto arb = makeArbiter(kind, n);
    const auto ref = makeReference(kind, n);
    orion::sim::Rng rng(0x5eed + n * 7 + static_cast<unsigned>(kind));
    Bits reqs(n, false);
    for (int t = 0; t < 4000; ++t) {
        reqs = nextRequests(reqs, rng);
        const std::vector<std::uint64_t> words = pack(reqs);
        const ArbitrationResult got = arb->arbitrate(words);
        const ArbitrationResult want = ref->arbitrate(reqs);
        ASSERT_EQ(got.winner, want.winner) << "call " << t;
        ASSERT_EQ(got.deltaReq, want.deltaReq) << "call " << t;
        ASSERT_EQ(got.deltaPri, want.deltaPri) << "call " << t;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndWidths, ArbiterMatchesBitModel,
    ::testing::Combine(::testing::Values(ArbiterKind::Matrix,
                                         ArbiterKind::RoundRobin,
                                         ArbiterKind::Queuing),
                       ::testing::Values(1u, 4u, 63u, 64u, 65u, 130u)));

} // namespace
