/**
 * @file
 * Credit-based flow control (paper Section 4.1).
 *
 * "Credit-based flow control regulates the use of buffers, i.e., a
 * credit is sent back to the previous router whenever a flit leaves, so
 * a router can maintain a count of the number of available buffers, and
 * no flits are forwarded onto the next hop unless there are buffers to
 * hold it."
 *
 * A Credit message names the VC whose buffer slot was freed; a
 * CreditCounter tracks the sender-side view of downstream free slots.
 */

#ifndef ORION_ROUTER_CREDIT_HH
#define ORION_ROUTER_CREDIT_HH

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "base/check.hh"

namespace orion::router {

/** A credit returned upstream: one buffer slot freed on VC @p vc. */
struct Credit
{
    std::uint8_t vc;
};

/**
 * Sender-side credit state for one output port: free-slot counters for
 * each downstream VC buffer.
 */
class CreditCounter
{
  public:
    /**
     * @param vcs        number of downstream VCs
     * @param depth      downstream buffer depth per VC, in flits
     * @param unlimited  true for ejection ports (the paper assumes
     *                   immediate ejection, i.e. an infinite sink)
     */
    CreditCounter(unsigned vcs, unsigned depth, bool unlimited = false);

    unsigned vcs() const { return static_cast<unsigned>(count_.size()); }
    bool unlimited() const { return unlimited_; }

    /** Downstream buffer depth of VC @p vc (audits). */
    unsigned
    depth(unsigned vc) const
    {
        assert(vc < depth_.size());
        return depth_[vc];
    }

    /** Free slots available on downstream VC @p vc. */
    unsigned
    available(unsigned vc) const
    {
        assert(vc < count_.size());
        if (unlimited_)
            return std::numeric_limits<unsigned>::max();
        return count_[vc];
    }

    /** True if downstream VC @p vc is completely empty (all credits
     * present) — the atomic-VC-allocation condition. */
    bool
    empty(unsigned vc) const
    {
        assert(vc < count_.size());
        return unlimited_ || count_[vc] == depth_[vc];
    }

    /** Number of completely empty downstream VCs (bubble-rule slots). */
    unsigned emptyVcs() const;

    /** Consume one credit (a flit was forwarded). */
    void
    consume(unsigned vc)
    {
        assert(vc < count_.size());
        if (unlimited_)
            return;
        ORION_CHECK(count_[vc] > 0,
                    "credit underflow: consume on exhausted VC "
                        << vc << " (depth " << depth_[vc] << ")");
        --count_[vc];
    }

    /** Return one credit (downstream freed a slot). */
    void
    restore(unsigned vc)
    {
        assert(vc < count_.size());
        if (unlimited_)
            return;
        ORION_CHECK(count_[vc] < depth_[vc],
                    "credit overflow: restore beyond depth "
                        << depth_[vc] << " on VC " << vc);
        ++count_[vc];
    }

    /**
     * Test-only corruption hook: silently steal one credit from
     * VC @p vc without any matching flit motion, so the network-wide
     * credit audit can prove it detects real accounting bugs. Never
     * call outside tests.
     */
    void debugCorruptCredit(unsigned vc);

  private:
    std::vector<unsigned> count_;
    std::vector<unsigned> depth_;
    bool unlimited_;
};

} // namespace orion::router

#endif // ORION_ROUTER_CREDIT_HH
