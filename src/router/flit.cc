#include "router/flit.hh"

#include <memory>

namespace orion::router {

/**
 * A pool's packets, free list and ledger. It lives apart from the
 * PacketPool so that packets released after the pool is gone still
 * find it: the pool closes it on destruction, and whichever of the
 * pool and its last live packet goes second frees it, and with it
 * every packet the pool ever allocated. One pool serves one
 * Simulation's thread.
 */
struct PacketPoolState
{
    /** Every packet this pool allocated, live or parked. */
    std::vector<std::unique_ptr<detail::PacketBlock>> blocks;
    /** Parked packets, most recently released first. */
    detail::PacketBlock* free = nullptr;
    std::size_t parked = 0;
    std::uint64_t recycled = 0;
    std::uint64_t returned = 0;
    /** False once the PacketPool is destroyed. */
    bool open = true;

    std::uint64_t
    live() const
    {
        return blocks.size() + recycled - returned;
    }
};

PacketRef
PacketRef::make(PacketInfo info)
{
    // A pool of one: it closes here and is freed with the packet.
    PacketPool pool;
    PacketRef ref = pool.acquire();
    ref.edit() = std::move(info);
    return ref;
}

void
PacketRef::destroy(detail::PacketBlock* p) noexcept
{
    PacketPoolState* st = p->pool;
    ++st->returned;
    p->nextFree = st->free;
    st->free = p;
    ++st->parked;
    if (st->open || st->live() != 0)
        return;
    // The pool is gone and this was its last live packet.
    const std::unique_ptr<PacketPoolState> owner(st);
}

PacketPool::PacketPool() : state_(std::make_unique<PacketPoolState>()) {}

PacketPool::~PacketPool()
{
    state_->open = false;
    // Live packets keep the state; the last of them frees it.
    if (state_->live() != 0)
        (void)state_.release();
}

PacketRef
PacketPool::acquire()
{
    PacketPoolState& st = *state_;
    detail::PacketBlock* p = st.free;
    if (p) {
        st.free = p->nextFree;
        --st.parked;
        ++st.recycled;
    } else {
        st.blocks.push_back(std::make_unique<detail::PacketBlock>());
        p = st.blocks.back().get();
        p->pool = &st;
    }
    p->refs = 1;
    return PacketRef(p);
}

std::uint64_t
PacketPool::allocatedCount() const
{
    return state_->blocks.size();
}

std::uint64_t
PacketPool::recycledCount() const
{
    return state_->recycled;
}

std::size_t
PacketPool::freeCount() const
{
    return state_->parked;
}

std::uint64_t
PacketPool::liveCount() const
{
    return state_->live();
}

std::uint32_t
payloadChecksum(const power::BitVec& payload)
{
    // splitmix64-style finalization folded over the storage words.
    // Seeding with the width keeps equal-valued vectors of different
    // widths distinct; the multiply-mix guarantees any single-bit
    // difference in any word perturbs the final value.
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ payload.width();
    for (std::size_t i = 0; i < payload.wordCount(); ++i) {
        h ^= payload.word(i);
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
    }
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

} // namespace orion::router
