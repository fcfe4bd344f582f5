/**
 * @file
 * Switching-activity helpers.
 *
 * The paper: "Throughout our power models, the switching activity
 * factors delta_x are monitored and calculated through simulation."
 * Flits in the simulator carry real payload bits; these helpers turn
 * pairs of payloads into the delta counts the energy equations consume
 * (number of switching write bitlines, number of flipped memory cells,
 * number of toggling crossbar/link wires).
 */

#ifndef ORION_POWER_ACTIVITY_HH
#define ORION_POWER_ACTIVITY_HH

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace orion::power {

/**
 * A fixed-width bit vector holding the payload of one flit (or any
 * datapath word the power models track). Width is in bits; storage is
 * little-endian 64-bit words with unused high bits kept at zero.
 *
 * Widths up to 256 bits (every configuration in the paper) live in
 * inline storage: no heap allocation per flit, and copies and moves
 * are inline word copies. Wider vectors keep their words in a heap
 * buffer of exactly wordCount() words, which shares the inline
 * storage's bytes; that path is out of line. A moved-from vector is
 * empty (width 0) and may be assigned to again.
 */
class BitVec
{
  public:
    BitVec() : width_(0), words_(0) {}

    /** An all-zero vector of @p width bits. */
    explicit BitVec(unsigned width);

    /** A vector of @p width bits whose low word is @p low_word. */
    BitVec(unsigned width, std::uint64_t low_word);

    BitVec(const BitVec& o)
        : width_(o.width_), words_(o.words_), store_(o.store_)
    {
        if (o.wide())
            copyWide(o);
    }

    /** Copying the storage union carries a heap pointer over too. */
    BitVec(BitVec&& o) noexcept
        : width_(std::exchange(o.width_, 0u)),
          words_(std::exchange(o.words_, 0u)),
          store_(o.store_)
    {
    }

    BitVec&
    operator=(const BitVec& o)
    {
        if (wide() || o.wide()) {
            assignWide(o);
            return *this;
        }
        width_ = o.width_;
        words_ = o.words_;
        store_ = o.store_;
        return *this;
    }

    BitVec&
    operator=(BitVec&& o) noexcept
    {
        if (wide()) {
            if (this == &o)
                return *this;
            freeWide();
        }
        // Read the source before emptying it: an inline self-move
        // then puts back what it took.
        const unsigned width = std::exchange(o.width_, 0u);
        const std::uint32_t words = std::exchange(o.words_, 0u);
        store_ = o.store_;
        width_ = width;
        words_ = words;
        return *this;
    }

    ~BitVec()
    {
        if (wide())
            freeWide();
    }

    unsigned width() const { return width_; }

    /** Number of 64-bit storage words. */
    std::size_t wordCount() const { return words_; }

    std::uint64_t word(std::size_t i) const { return data()[i]; }

    /** Set storage word @p i (masked to the declared width). */
    void setWord(std::size_t i, std::uint64_t v);

    bool bit(unsigned i) const;
    void setBit(unsigned i, bool v);

    /** Number of set bits. */
    unsigned popcount() const;

    bool operator==(const BitVec& o) const;

    const std::uint64_t*
    data() const
    {
        return wide() ? store_.heap : store_.inlineWords.data();
    }

    std::uint64_t*
    data()
    {
        return wide() ? store_.heap : store_.inlineWords.data();
    }

  private:
    static constexpr std::size_t kInlineWords = 4; // up to 256 bits

    /** True when the words live in the heap buffer. */
    bool wide() const { return words_ > kInlineWords; }

    /** Copy-construction tail for a wide @p o: a buffer of its own. */
    void copyWide(const BitVec& o);
    /** Copy assignment when either side is wide. */
    void assignWide(const BitVec& o);
    /** Free the heap buffer; the caller overwrites or destroys the
     * storage next. */
    void freeWide() noexcept;

    void maskTop();

    /** The words: inline, or a heap buffer of words_ words when
     * wide(). Both members are trivially copyable, so copying the
     * whole union copies whichever one is live. */
    union Storage
    {
        std::array<std::uint64_t, kInlineWords> inlineWords;
        std::uint64_t* heap;
    };

    unsigned width_;
    std::uint32_t words_;
    Storage store_{};
};

static_assert(sizeof(BitVec) == 40, "flits embed BitVec; keep it small");

/**
 * Hamming distance between two equal-width bit vectors: the number of
 * wires that toggle when the datapath value changes from @p a to @p b.
 * Inline: every buffer write/read and link traversal computes one of
 * these, so the XOR/popcount loop sits on the cycle kernel's hot path.
 */
inline unsigned
hammingDistance(const BitVec& a, const BitVec& b)
{
    assert(a.width() == b.width());
    unsigned n = 0;
    const std::uint64_t* wa = a.data();
    const std::uint64_t* wb = b.data();
    for (std::size_t i = 0; i < a.wordCount(); ++i)
        n += static_cast<unsigned>(std::popcount(wa[i] ^ wb[i]));
    return n;
}

/**
 * Number of switching write bitlines (delta_bw of Table 2).
 *
 * Write bitlines are driven with the new datum; a bitline pair switches
 * when the bit being written differs from the value the write driver
 * held from the previous write.
 */
inline unsigned
switchingWriteBitlines(const BitVec& new_data, const BitVec& last_written)
{
    return hammingDistance(new_data, last_written);
}

/**
 * Number of flipped memory cells (delta_bc of Table 2): bits of the new
 * datum that differ from the old contents of the target row.
 */
inline unsigned
flippedCells(const BitVec& new_data, const BitVec& old_row)
{
    return hammingDistance(new_data, old_row);
}

} // namespace orion::power

#endif // ORION_POWER_ACTIVITY_HH
