/**
 * @file
 * Flit and packet types.
 *
 * "A flit is the smallest unit of flow control, and is a fixed-sized
 * unit of a packet" (paper Section 3.3). Packets here are sequences of
 * flits: a head flit carrying the source route, zero or more body
 * flits, and a tail flit (the paper's experiments use 5-flit packets:
 * one head leading 4 data flits).
 *
 * Flits carry real payload bits so downstream modules can compute
 * genuine switching-activity deltas, and the source route as a list of
 * per-hop (output port, VC class) decisions — the paper uses source
 * dimension-ordered routing where "the route is encoded in a packet
 * beforehand at source". A packet's flits share its PacketInfo through
 * counted PacketRefs, served by a per-network PacketPool.
 */

#ifndef ORION_ROUTER_FLIT_HH
#define ORION_ROUTER_FLIT_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "power/activity.hh"
#include "sim/event.hh"

namespace orion::router {

/** One hop of a source route. */
struct RouteHop
{
    /** Output port to take at this hop's router. */
    std::uint8_t port;
    /**
     * VC class required on the downstream input buffer (dateline
     * deadlock avoidance); always 0 when dateline is not in use.
     */
    std::uint8_t vcClass;
    /**
     * True if this hop enters a new ring (injection or dimension
     * change) — used by bubble flow control, which demands space for
     * two packets when entering a ring and one when continuing.
     */
    bool newRing;
};

/** Immutable per-packet data shared by all of a packet's flits. */
struct PacketInfo
{
    std::uint64_t id = 0;
    int src = 0;
    int dst = 0;
    /** Cycle the packet was created (source queuing included). */
    sim::Cycle createdAt = 0;
    /** Packet length in flits. */
    unsigned length = 0;
    /** Whether this packet belongs to the measurement sample. */
    bool sample = false;
    /**
     * Retransmission attempt number (0 = original send). Sources
     * deduplicate NACKs by (id, attempt) so several faults hitting the
     * same attempt trigger exactly one retransmission.
     */
    unsigned attempt = 0;
    /** The full source route, one hop per router on the path. */
    std::vector<RouteHop> route;
};

class PacketPool;
struct PacketPoolState;

namespace detail {

/** A PacketInfo and its intrusive reference count: one heap object
 * per packet, with no separate control block. */
struct PacketBlock : PacketInfo
{
    /** PacketRefs pointing here. */
    std::uint32_t refs = 0;
    /** The pool this block returns to. */
    PacketPoolState* pool = nullptr;
    /** Next parked block while on the pool's free list. */
    PacketBlock* nextFree = nullptr;
};

} // namespace detail

/**
 * Counted reference to a packet's shared, immutable PacketInfo.
 *
 * The count lives in the packet itself, so a reference is one
 * pointer, copying one bumps a counter in memory the holder reads
 * anyway, and moving one leaves the count alone. A packet costs one
 * allocation at most, and none once its PacketPool has warmed up.
 * Like the simulation owning the packets, the count is single-threaded.
 */
class PacketRef
{
  public:
    PacketRef() = default;

    PacketRef(const PacketRef& o) noexcept : p_(o.p_)
    {
        if (p_)
            ++p_->refs;
    }

    PacketRef(PacketRef&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}

    PacketRef&
    operator=(const PacketRef& o) noexcept
    {
        // Count the new reference first: self-assignment stays safe.
        detail::PacketBlock* q = o.p_;
        if (q)
            ++q->refs;
        reset();
        p_ = q;
        return *this;
    }

    PacketRef&
    operator=(PacketRef&& o) noexcept
    {
        detail::PacketBlock* q = std::exchange(o.p_, nullptr);
        reset();
        p_ = q;
        return *this;
    }

    ~PacketRef() { reset(); }

    /** Drop this reference (freeing or recycling an unshared packet). */
    void
    reset() noexcept
    {
        detail::PacketBlock* q = std::exchange(p_, nullptr);
        if (q && --q->refs == 0)
            destroy(q);
    }

    const PacketInfo& operator*() const { return *p_; }
    const PacketInfo* operator->() const { return p_; }
    const PacketInfo* get() const { return p_; }
    explicit operator bool() const { return p_ != nullptr; }

    /**
     * Mutable access for the packet's creator. Flits share a packet
     * immutably, so only the sole reference may edit it.
     */
    PacketInfo&
    edit()
    {
        assert(p_ && p_->refs == 1 && "PacketInfo is shared");
        return *p_;
    }

    /** A packet holding @p info in a pool of its own, freed with its
     * last reference (tests and debug injection). */
    static PacketRef make(PacketInfo info = {});

  private:
    friend class PacketPool;

    /** Adopt @p p, whose count already includes this reference. */
    explicit PacketRef(detail::PacketBlock* p) noexcept : p_(p) {}

    /** The last reference to @p p is gone: park it or free it. */
    static void destroy(detail::PacketBlock* p) noexcept;

    detail::PacketBlock* p_ = nullptr;
};

/**
 * Free-list recycler for packets. At steady state every generated or
 * cloned packet reuses the storage of one that finished, and with it
 * its route vector's capacity, so the kernel makes no heap allocation
 * per packet.
 *
 * Packets may outlive their pool (a NACK queue destroyed after the
 * network, a test holding a flit): the pool's packets, free list and
 * ledger live in a PacketPoolState that the pool closes when it dies,
 * and the last packet released after that frees it.
 */
class PacketPool
{
  public:
    PacketPool();
    ~PacketPool();

    PacketPool(const PacketPool&) = delete;
    PacketPool& operator=(const PacketPool&) = delete;

    /**
     * A packet with a single reference: the most recently released
     * one if any is parked, otherwise a new one. Recycled packets
     * keep their previous field values, so assign every field.
     */
    PacketRef acquire();

    /// @name Introspection (tests)
    /// @{
    /** Packets constructed over the pool's lifetime. */
    std::uint64_t allocatedCount() const;
    /** acquire() calls served from the free list. */
    std::uint64_t recycledCount() const;
    /** Packets parked and available for reuse. */
    std::size_t freeCount() const;
    /** Packets handed out and still referenced. */
    std::uint64_t liveCount() const;
    /// @}

  private:
    std::unique_ptr<PacketPoolState> state_;
};

/**
 * A single flit in flight, laid out in exactly one 64-byte cache line
 * (a router moves each flit three times per hop).
 */
struct Flit
{
    /** Shared packet metadata (route, timestamps). */
    PacketRef packet;
    /** Payload bits (drives switching-activity accounting). */
    power::BitVec payload;
    /** Index of this flit within its packet (0 = head). */
    unsigned seq = 0;
    /**
     * Index into packet->route of the router this flit is *arriving
     * at*; incremented by each router when forwarding to the next.
     */
    unsigned hop = 0;
    /**
     * End-to-end payload checksum, stamped once at the source when
     * fault injection is active (payload is immutable along the path);
     * checked at every router input to detect link corruption. Zero
     * and unchecked in fault-free runs.
     */
    std::uint32_t linkCrc = 0;
    /** True for the packet's first flit. */
    bool head = false;
    /** True for the packet's last flit. */
    bool tail = false;
    /** VC of the downstream input buffer, set by the sender. */
    std::uint8_t vc = 0;
    /**
     * True for a receiver-synthesized tail that replaces a corrupted
     * body/tail flit: it closes the worm's VC/buffer state at every
     * downstream hop, is never faulted again, and is discarded at the
     * destination without completing the packet.
     */
    bool poison = false;

    /** The routing decision to apply at the current router. */
    const RouteHop&
    routeHop() const
    {
        return packet->route[hop];
    }

    /** True if the current router is the last on the path. */
    bool
    atLastHop() const
    {
        return hop + 1 == packet->route.size();
    }
};

static_assert(sizeof(Flit) == 64, "a flit fills one cache line");

/**
 * Checksum over payload bits used as the per-flit link CRC. Mixes each
 * word through a 64-bit finalizer so any single-bit flip (the fault
 * injector's corruption unit) changes the result.
 */
std::uint32_t payloadChecksum(const power::BitVec& payload);

} // namespace orion::router

#endif // ORION_ROUTER_FLIT_HH
