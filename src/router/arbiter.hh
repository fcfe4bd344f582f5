/**
 * @file
 * Behavioural arbiters — the functional twins of power::ArbiterModel.
 *
 * Each arbitrate() call resolves one arbitration, updates the internal
 * priority state exactly as the modeled hardware would, and reports the
 * switching-activity deltas (changed request lines, toggled priority
 * flip-flops) the arbiter power model consumes.
 */

#ifndef ORION_ROUTER_ARBITER_HH
#define ORION_ROUTER_ARBITER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

namespace orion::router {

/**
 * Behavioural arbiter styles — mirrors the power models' kinds so a
 * router's functional arbitration matches the energy being charged.
 */
enum class ArbiterKind
{
    Matrix,
    RoundRobin,
    Queuing,
};

/** Outcome of one arbitration. */
struct ArbitrationResult
{
    /** Granted requester index, or -1 if no requests. */
    int winner;
    /** Request lines that changed since the previous arbitration. */
    unsigned deltaReq;
    /** Priority flip-flops that toggled. */
    unsigned deltaPri;
};

/**
 * Abstract arbiter over a fixed number of requesters.
 *
 * A request set is wordsFor(requests()) packed 64-bit words: bit i % 64
 * of word i / 64 is requester i, and bits at or above requests() are
 * zero. The routers build these words directly as they scan for
 * requests, and every arbiter style runs on them.
 */
class Arbiter
{
  public:
    explicit Arbiter(unsigned requests);
    virtual ~Arbiter() = default;

    unsigned requests() const { return requests_; }

    /** 64-bit words needed for one bit per requester. */
    static std::size_t
    wordsFor(unsigned requests)
    {
        return (requests + 63) / 64;
    }

    /**
     * Resolve one arbitration among the set bits of @p reqs
     * (wordsFor(requests()) words). Grants exactly one of the asserted
     * requests (or none if no bit is set) and updates priority state.
     */
    virtual ArbitrationResult
    arbitrate(std::span<const std::uint64_t> reqs) = 0;

  protected:
    /**
     * Request lines that changed since the previous call: popcount of
     * @p reqs XOR the remembered words, which are then updated.
     */
    unsigned requestDelta(std::span<const std::uint64_t> reqs);

    unsigned requests_;

  private:
    std::vector<std::uint64_t> lastWords_;
};

/**
 * Matrix arbiter: a triangular matrix of priority bits encoding a
 * least-recently-served total order. The winner is the requester with
 * priority over all other requesters; on a grant the winner drops to
 * the bottom of the order (its row/column flip-flops toggle).
 */
class MatrixArbiter : public Arbiter
{
  public:
    explicit MatrixArbiter(unsigned requests);

    ArbitrationResult
    arbitrate(std::span<const std::uint64_t> reqs) override;

    /** True if requester @p i currently has priority over @p j. */
    bool hasPriority(unsigned i, unsigned j) const;

  private:
    /** Requester @p i's row: the requesters i beats (bit j =
     * prio[i][j]). Its column (the requesters beating i, bit j =
     * prio[j][i]) follows at row(i) + words_. */
    std::uint64_t*
    row(unsigned i)
    {
        return &matrix_[2 * i * words_];
    }

    std::size_t words_;
    /**
     * The priority matrix, bit-packed both ways in one allocation so
     * the grant scan is word-parallel: requester i's row and column
     * words sit side by side. Antisymmetry is maintained as an
     * invariant, making the columns the transpose of the rows; they
     * are kept materialized because the hot test "is any pending
     * requester beating i" is one AND against i's column.
     */
    std::vector<std::uint64_t> matrix_;
};

/**
 * Round-robin arbiter: a rotating one-hot token; the winner is the
 * first asserted request at or after the token, and the token then
 * advances past the winner.
 */
class RoundRobinArbiter : public Arbiter
{
  public:
    explicit RoundRobinArbiter(unsigned requests);

    ArbitrationResult
    arbitrate(std::span<const std::uint64_t> reqs) override;

    unsigned token() const { return token_; }

  private:
    unsigned token_ = 0;
};

/**
 * Queuing arbiter: requesters are served strictly in the order their
 * requests first arrived (a FIFO of requester ids, the paper's third
 * arbiter style). A requester that withdraws its request leaves the
 * queue when it reaches the front.
 */
class QueuingArbiter : public Arbiter
{
  public:
    explicit QueuingArbiter(unsigned requests);

    ArbitrationResult
    arbitrate(std::span<const std::uint64_t> reqs) override;

    std::size_t queueLength() const { return queue_.size(); }

  private:
    std::deque<unsigned> queue_;
    /** Requesters currently in queue_, packed like a request set. */
    std::vector<std::uint64_t> queued_;
};

/** Construct an arbiter of the given behavioural kind. */
std::unique_ptr<Arbiter> makeArbiter(ArbiterKind kind,
                                     unsigned requests);

} // namespace orion::router

#endif // ORION_ROUTER_ARBITER_HH
