/**
 * @file
 * The event subsystem the power models hook into.
 *
 * Paper Section 2.1: "The integration of power models is based on the
 * event subsystem of LSE... Users define events associated with each
 * module. Power models in the power simulation library are hooked to
 * these events so when an event occurs during the execution, it
 * triggers the specific power model, which calculates and accumulates
 * the energy consumed."
 *
 * Modules emit typed Event records on a shared EventBus. The bus counts
 * every power event into an attached ActivityTally (net::PowerMonitor
 * turns those counts into energy when it is read); other listeners
 * subscribe per event type. Events carry the switching-activity deltas
 * the energy equations need, already computed by the emitting module
 * from real payload bits.
 */

#ifndef ORION_SIM_EVENT_HH
#define ORION_SIM_EVENT_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace orion::sim {

/** Simulation time in cycles. */
using Cycle = std::uint64_t;

/** Kinds of power-relevant events modules can emit. */
enum class EventType : unsigned
{
    /** A flit was written into an input FIFO buffer. */
    BufferWrite,
    /** A flit was read out of an input FIFO buffer. */
    BufferRead,
    /** A switch/VC arbitration was performed. */
    Arbitration,
    /** A VC allocation arbitration was performed. */
    VcAllocation,
    /** A flit traversed the crossbar. */
    CrossbarTraversal,
    /** A flit was written into the central buffer. */
    CentralBufferWrite,
    /** A flit was read from the central buffer. */
    CentralBufferRead,
    /** A flit traversed an inter-router link. */
    LinkTraversal,
    /** A credit was returned upstream. */
    CreditTransfer,
    /** A packet entered the network (head flit created at source). */
    PacketInjected,
    /** A packet fully left the network (tail flit ejected at sink). */
    PacketEjected,
};

/** Number of distinct event types. */
constexpr unsigned kNumEventTypes =
    static_cast<unsigned>(EventType::PacketEjected) + 1;

/** Number of power event types: every type before PacketInjected. */
constexpr unsigned kNumPowerEventTypes =
    static_cast<unsigned>(EventType::PacketInjected);

/**
 * One dynamic event. The two delta fields carry switching-activity
 * counts whose meaning depends on the event type:
 *
 *  - BufferWrite:        deltaA = switching write bitlines (delta_bw),
 *                        deltaB = flipped memory cells (delta_bc)
 *  - Arbitration /
 *    VcAllocation:       deltaA = changed request lines,
 *                        deltaB = toggled priority flip-flops
 *  - CrossbarTraversal / CentralBuffer* / LinkTraversal:
 *                        deltaA = toggling data wires
 *  - PacketEjected:      deltaA = packet latency in cycles
 */
struct Event
{
    EventType type;
    /** Network node the emitting module belongs to (-1 if none). */
    int node;
    /** Component instance within the node (e.g. input port index). */
    int component;
    /** Switching-activity / payload field A (see above). */
    std::uint32_t deltaA;
    /** Switching-activity / payload field B (see above). */
    std::uint32_t deltaB;
    /** Cycle at which the event occurred. */
    Cycle cycle;
};

/** Exact activity counts of one (node, power event type). */
struct ActivityCount
{
    /** Events emitted. */
    std::uint64_t events = 0;
    /** Sum of their deltaA, each clamped to the type's limit. */
    std::uint64_t sumA = 0;
    /** Sum of their deltaB, each clamped to the type's limit. */
    std::uint64_t sumB = 0;
    /** Events whose clamped deltaA is nonzero. */
    std::uint64_t activeA = 0;
};

/** Clamp limits of one power event type's deltas: the widths its
 * power model accepts (0 where the model ignores the delta). */
struct DeltaLimits
{
    std::uint32_t a = 0;
    std::uint32_t b = 0;
};

/**
 * One ActivityCount per (node, power event type), stored node-major so
 * each node's counts form one row. EventBus::emit bumps the attached
 * tally inline: integer adds, no call and no floating point. The counts
 * are exact, so any quantity derived from them depends on the multiset
 * of events and not on their order.
 */
class ActivityTally
{
  public:
    using Limits = std::array<DeltaLimits, kNumPowerEventTypes>;

    ActivityTally(unsigned nodes, const Limits& limits)
        : nodes_(nodes), limits_(limits),
          counts_(std::size_t{nodes} * kNumPowerEventTypes)
    {
    }

    unsigned nodes() const { return nodes_; }

    const DeltaLimits&
    limits(EventType type) const
    {
        return limits_[static_cast<unsigned>(type)];
    }

    /** Count @p ev, a power event of a node below nodes(). */
    void
    add(const Event& ev)
    {
        const auto type = static_cast<unsigned>(ev.type);
        assert(type < kNumPowerEventTypes);
        assert(ev.node >= 0 && static_cast<unsigned>(ev.node) < nodes_);
        const DeltaLimits& lim = limits_[type];
        ActivityCount& c =
            counts_[static_cast<std::size_t>(ev.node) *
                        kNumPowerEventTypes + type];
        const std::uint32_t a = std::min(ev.deltaA, lim.a);
        ++c.events;
        c.sumA += a;
        c.sumB += std::min(ev.deltaB, lim.b);
        c.activeA += a != 0 ? 1u : 0u;
    }

    const ActivityCount&
    at(int node, EventType type) const
    {
        assert(node >= 0 && static_cast<unsigned>(node) < nodes_);
        return counts_[static_cast<std::size_t>(node) *
                           kNumPowerEventTypes +
                       static_cast<unsigned>(type)];
    }

    /** Counts of @p type summed over every node. */
    ActivityCount total(EventType type) const;

    /** Zero every count (the limits stay). */
    void reset();

  private:
    unsigned nodes_;
    Limits limits_;
    /** counts_[node * kNumPowerEventTypes + type]. */
    std::vector<ActivityCount> counts_;
};

/**
 * Synchronous publish/subscribe bus. emit() counts a power event into
 * the attached ActivityTally, if any, then dispatches it to all
 * listeners of its type immediately, in subscription order.
 *
 * Dispatch is a flat loop over preresolved {function pointer, context}
 * pairs, with no std::function indirection on the hot path. A type
 * with no subscribers costs one counter increment, its tally bump and
 * an empty-loop test per emit.
 *
 * A bus belongs to one Simulation and is touched by its thread only:
 * subscriptions happen while the network is wired and the simulation
 * is set up, and the run then only emits.
 */
class EventBus
{
  public:
    /** Preresolved handler: @p ctx is the subscriber instance. */
    using RawHandler = void (*)(void* ctx, const Event& ev);

    EventBus() = default;
    EventBus(const EventBus&) = delete;
    EventBus& operator=(const EventBus&) = delete;

    /**
     * Subscribe a raw handler to @p type. @p fn must outlive the bus
     * (it is a static trampoline — a captureless lambda or a
     * file-static function — into @p ctx's member function; the
     * orion_lint `raw-subscribe` rule enforces this); no ownership
     * is taken of @p ctx.
     */
    void subscribeRaw(EventType type, RawHandler fn, void* ctx);

    /**
     * Count every power event emitted from now on into @p tally (not
     * owned; it must outlive the attachment). The bus has one slot,
     * which must be free.
     */
    void attachTally(ActivityTally* tally);

    /** Free the tally slot if @p tally holds it. */
    void detachTally(const ActivityTally* tally);

    /** Count @p ev into the attached tally if it is a power event,
     * then publish it to all subscribers of its type. */
    void
    emit(const Event& ev)
    {
        const unsigned idx = static_cast<unsigned>(ev.type);
        ++counts_[idx];
        if (tally_ != nullptr && idx < kNumPowerEventTypes)
            tally_->add(ev);
        for (const Handler& h : handlers_[idx])
            h.fn(h.ctx, ev);
    }

    /** Total events emitted, by type (includes unsubscribed types). */
    std::uint64_t
    emittedCount(EventType type) const
    {
        return counts_[static_cast<unsigned>(type)];
    }

  private:
    struct Handler
    {
        RawHandler fn;
        void* ctx;
    };

    std::array<std::vector<Handler>, kNumEventTypes> handlers_;
    std::array<std::uint64_t, kNumEventTypes> counts_{};
    /** The one tally slot (see attachTally). */
    ActivityTally* tally_ = nullptr;
};

/** Human-readable name of an event type (for reports/tests). */
const char* eventTypeName(EventType type);

} // namespace orion::sim

#endif // ORION_SIM_EVENT_HH
