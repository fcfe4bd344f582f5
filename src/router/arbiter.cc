#include "router/arbiter.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace orion::router {

Arbiter::Arbiter(unsigned requests)
    : requests_(requests), lastWords_(wordsFor(requests), 0)
{
    assert(requests > 0);
}

unsigned
Arbiter::requestDelta(std::span<const std::uint64_t> reqs)
{
    assert(reqs.size() == lastWords_.size());
    assert(requests_ % 64 == 0 || reqs.back() >> (requests_ % 64) == 0);
    unsigned delta = 0;
    for (std::size_t k = 0; k < reqs.size(); ++k) {
        delta += static_cast<unsigned>(
            std::popcount(reqs[k] ^ lastWords_[k]));
        lastWords_[k] = reqs[k];
    }
    return delta;
}

MatrixArbiter::MatrixArbiter(unsigned requests)
    : Arbiter(requests),
      words_(wordsFor(requests)),
      matrix_(2 * requests * words_, 0)
{
    // Initial total order: lower index beats higher index.
    for (unsigned i = 0; i < requests; ++i) {
        for (unsigned j = i + 1; j < requests; ++j) {
            row(i)[j / 64] |= std::uint64_t{1} << (j % 64);
            row(j)[words_ + i / 64] |= std::uint64_t{1} << (i % 64);
        }
    }
}

bool
MatrixArbiter::hasPriority(unsigned i, unsigned j) const
{
    assert(i < requests_ && j < requests_ && i != j);
    return (matrix_[2 * i * words_ + j / 64] >> (j % 64)) & 1;
}

ArbitrationResult
MatrixArbiter::arbitrate(std::span<const std::uint64_t> reqs)
{
    const unsigned delta_req = requestDelta(reqs);
    const std::size_t words = words_;

    // grant_i = req_i AND no other pending request has priority over i:
    // one AND of the request set against i's beaten-by column. The
    // matrix encodes a total order, so scanning requesters in index
    // order finds the unique unbeaten one regardless of order.
    int winner = -1;
    for (std::size_t k = 0; k < words && winner < 0; ++k) {
        std::uint64_t pending = reqs[k];
        while (pending != 0) {
            const unsigned i = static_cast<unsigned>(k) * 64 +
                               std::countr_zero(pending);
            pending &= pending - 1;
            const std::uint64_t* beats = row(i) + words;
            std::uint64_t beaten = 0;
            for (std::size_t m = 0; m < words; ++m)
                beaten |= reqs[m] & beats[m];
            if (beaten == 0) {
                winner = static_cast<int>(i);
                break;
            }
        }
    }
    // The priority matrix encodes a total order, so an asserted request
    // set always has exactly one unbeaten member.
    assert(winner >= 0 ||
           std::ranges::none_of(reqs, [](std::uint64_t r) { return r; }));

    unsigned delta_pri = 0;
    if (winner >= 0) {
        // Winner drops below everyone: its row empties into the rows
        // and columns of every requester it used to beat (each such
        // pair toggles two flip-flops of one priority bit).
        const auto w = static_cast<unsigned>(winner);
        std::uint64_t* w_row = row(w);
        std::uint64_t* w_col = w_row + words;
        const std::uint64_t w_bit = std::uint64_t{1} << (w % 64);
        for (std::size_t k = 0; k < words; ++k) {
            std::uint64_t lost = w_row[k];
            if (lost == 0)
                continue;
            delta_pri += static_cast<unsigned>(std::popcount(lost));
            w_col[k] |= lost;
            w_row[k] = 0;
            while (lost != 0) {
                const unsigned j = static_cast<unsigned>(k) * 64 +
                                   std::countr_zero(lost);
                lost &= lost - 1;
                row(j)[w / 64] |= w_bit;
                row(j)[words + w / 64] &= ~w_bit;
            }
        }
    }
    return {winner, delta_req, delta_pri};
}

RoundRobinArbiter::RoundRobinArbiter(unsigned requests)
    : Arbiter(requests)
{
}

ArbitrationResult
RoundRobinArbiter::arbitrate(std::span<const std::uint64_t> reqs)
{
    const unsigned delta_req = requestDelta(reqs);

    // First asserted request at or after the token, cyclically: the
    // token's word masked to bits >= token, then the following words,
    // wrapping round to the token's word in full (its bits >= token
    // are already known clear, so that last visit finds the ones
    // below the token).
    int winner = -1;
    std::size_t k = token_ / 64;
    std::uint64_t w = reqs[k] & (~std::uint64_t{0} << (token_ % 64));
    for (std::size_t n = 0; n <= reqs.size(); ++n) {
        if (w != 0) {
            winner = static_cast<int>(k * 64 + std::countr_zero(w));
            break;
        }
        k = k + 1 == reqs.size() ? 0 : k + 1;
        w = reqs[k];
    }

    unsigned delta_pri = 0;
    if (winner >= 0) {
        const unsigned next =
            (static_cast<unsigned>(winner) + 1) % requests_;
        if (next != token_) {
            // One-hot token moves: two flip-flops toggle.
            delta_pri = 2;
            token_ = next;
        }
    }
    return {winner, delta_req, delta_pri};
}

QueuingArbiter::QueuingArbiter(unsigned requests)
    : Arbiter(requests), queued_(wordsFor(requests), 0)
{
}

ArbitrationResult
QueuingArbiter::arbitrate(std::span<const std::uint64_t> reqs)
{
    const unsigned delta_req = requestDelta(reqs);

    // Newly asserted requesters join the queue in index order (ties
    // within one cycle are broken by requester index).
    unsigned delta_pri = 0;
    for (std::size_t k = 0; k < reqs.size(); ++k) {
        std::uint64_t fresh = reqs[k] & ~queued_[k];
        queued_[k] |= fresh;
        // One queue write per enqueued id.
        delta_pri += static_cast<unsigned>(std::popcount(fresh));
        for (; fresh != 0; fresh &= fresh - 1) {
            queue_.push_back(static_cast<unsigned>(k) * 64 +
                             std::countr_zero(fresh));
        }
    }

    // Serve the oldest still-asserted request; withdrawn requests at
    // the front are discarded.
    int winner = -1;
    while (!queue_.empty()) {
        const unsigned front = queue_.front();
        queue_.pop_front();
        const std::uint64_t bit = std::uint64_t{1} << (front % 64);
        queued_[front / 64] &= ~bit;
        if (reqs[front / 64] & bit) {
            winner = static_cast<int>(front);
            break;
        }
    }
    return {winner, delta_req, delta_pri};
}

std::unique_ptr<Arbiter>
makeArbiter(ArbiterKind kind, unsigned requests)
{
    switch (kind) {
      case ArbiterKind::Matrix:
        return std::make_unique<MatrixArbiter>(requests);
      case ArbiterKind::RoundRobin:
        return std::make_unique<RoundRobinArbiter>(requests);
      case ArbiterKind::Queuing:
        return std::make_unique<QueuingArbiter>(requests);
    }
    return std::make_unique<MatrixArbiter>(requests);
}

} // namespace orion::router
