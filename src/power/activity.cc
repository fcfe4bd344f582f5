#include "power/activity.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace orion::power {

namespace {

// A wide BitVec's words are owned through its union (a smart pointer
// cannot share storage with the inline words), so they are allocated
// here and freed in BitVec::freeWide, by hand.
std::uint64_t*
allocWords(std::size_t n)
{
    return new std::uint64_t[n](); // lint-allow: naked-new -- BitVec's union store, freed by freeWide
}

} // namespace

BitVec::BitVec(unsigned width)
    : width_(width),
      words_(static_cast<std::uint32_t>((width + 63) / 64))
{
    if (wide())
        store_.heap = allocWords(words_);
}

BitVec::BitVec(unsigned width, std::uint64_t low_word)
    : BitVec(width)
{
    if (words_ > 0) {
        data()[0] = low_word;
        maskTop();
    }
}

void
BitVec::copyWide(const BitVec& o)
{
    store_.heap = allocWords(words_);
    std::copy_n(o.store_.heap, words_, store_.heap);
}

void
BitVec::assignWide(const BitVec& o)
{
    if (this == &o)
        return;
    if (o.wide()) {
        // Keep a heap buffer of the same size; allocate before
        // freeing so a failed allocation leaves *this intact.
        if (words_ != o.words_) {
            std::uint64_t* fresh = allocWords(o.words_);
            if (wide())
                freeWide();
            store_.heap = fresh;
        }
        std::copy_n(o.store_.heap, o.words_, store_.heap);
    } else {
        freeWide();
        store_ = o.store_;
    }
    width_ = o.width_;
    words_ = o.words_;
}

void
BitVec::freeWide() noexcept
{
    delete[] store_.heap; // lint-allow: naked-new -- pairs with allocWords
}

bool
BitVec::operator==(const BitVec& o) const
{
    if (width_ != o.width_)
        return false;
    return std::equal(data(), data() + words_, o.data());
}

void
BitVec::setWord(std::size_t i, std::uint64_t v)
{
    assert(i < words_);
    data()[i] = v;
    maskTop();
}

bool
BitVec::bit(unsigned i) const
{
    assert(i < width_);
    return (data()[i / 64] >> (i % 64)) & 1;
}

void
BitVec::setBit(unsigned i, bool v)
{
    assert(i < width_);
    const std::uint64_t mask = std::uint64_t{1} << (i % 64);
    if (v)
        data()[i / 64] |= mask;
    else
        data()[i / 64] &= ~mask;
}

unsigned
BitVec::popcount() const
{
    unsigned n = 0;
    for (std::size_t w = 0; w < words_; ++w)
        n += std::popcount(data()[w]);
    return n;
}

void
BitVec::maskTop()
{
    const unsigned rem = width_ % 64;
    if (rem != 0 && words_ > 0)
        data()[words_ - 1] &= (std::uint64_t{1} << rem) - 1;
}

} // namespace orion::power
