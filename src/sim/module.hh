/**
 * @file
 * Module base class and registered channels — the structural modeling
 * layer (paper Section 2.1).
 *
 * "In LSE, physical hardware blocks are modeled as logical functional
 * modules that communicate through ports. Data is sent between module
 * ports via message passing."
 *
 * Here a Module is a named hardware block with a per-cycle evaluate
 * hook; Channel<T> is a 1-cycle registered point-to-point port pair
 * (write this cycle, readable next cycle). Registering every
 * inter-module connection breaks all combinational cycles: no module
 * sees another's channel writes before the next cycle, whatever order
 * modules are evaluated in. State shared outside channels has no such
 * protection. The packet-id and sample counters of net::SharedState
 * (net/node.cc) are updated in module order, which is why reversing
 * the module loop changes reports (ROADMAP item 1).
 */

#ifndef ORION_SIM_MODULE_HH
#define ORION_SIM_MODULE_HH

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.hh"

namespace orion::sim {

class Simulator;

/** Base class for all hardware modules. */
class Module
{
  public:
    /**
     * @param name  hierarchical instance name (for reports)
     * @param node  network node id this module belongs to (-1 if none)
     */
    Module(std::string name, int node);
    virtual ~Module() = default;

    Module(const Module&) = delete;
    Module& operator=(const Module&) = delete;

    const std::string& name() const { return name_; }
    int node() const { return node_; }

    /**
     * Evaluate one cycle. Modules may read channel values (registered
     * last cycle) and write channel inputs (visible next cycle).
     */
    virtual void cycle(Cycle now) = 0;

  private:
    std::string name_;
    int node_;
};

class ChannelBase;

/**
 * A 1-cycle registered wire carrying at most one message per cycle.
 *
 * The producer calls write() during its cycle() evaluation; the
 * consumer sees the message via read() during the *next* cycle, after
 * the simulator advances all channels at the cycle boundary.
 *
 * The register is two message slots and an index: write() fills the
 * staged slot, and advance() flips which slot is current instead of
 * moving the message, so a message is moved once into the wire and
 * once out of it. A consumer may screen the current message in place
 * (consume()) before moving it on. The current slot is not written
 * again until the next advance(), so a consumed slot stays intact
 * for the rest of the cycle.
 *
 * Channels registered with a Simulator are advanced by write
 * scheduling: write() appends the channel to the simulator's
 * pending-advance list, so the cycle boundary touches only channels
 * that actually carry a message instead of walking every wire in the
 * network. A consumer-side wake bit (setWakeFlag) is raised in the
 * consumer's wake mask whenever a message becomes readable, giving
 * consumers a cheap "anything new, and where?" test: one mask per
 * consumer, one bit per input port.
 */
template <typename T>
class Channel
{
  public:
    /** Stage a message for delivery next cycle. At most one per cycle. */
    void
    write(T&& msg)
    {
        assert(!hasStaged_ && "channel written twice in a cycle");
        slots_[cur_ ^ 1] = std::move(msg);
        hasStaged_ = true;
        if (advanceQueue_)
            advanceQueue_->push_back(advanceSelf_);
    }

    /** True if a message is available this cycle. */
    bool valid() const { return hasCurrent_; }

    /** The message delivered this cycle (valid() must be true). */
    const T&
    peek() const
    {
        assert(hasCurrent_);
        return slots_[cur_];
    }

    /** Consume and return this cycle's message. */
    T
    read()
    {
        return std::move(consume());
    }

    /**
     * Consume this cycle's message in place: the returned slot may be
     * inspected, modified and moved from until the next advance().
     */
    T&
    consume()
    {
        assert(hasCurrent_);
        hasCurrent_ = false;
        return slots_[cur_];
    }

    /**
     * Advance the register: called by the simulator between cycles.
     * An unconsumed message stays available; a new message arriving
     * while one is still pending is an overrun (consumers must drain
     * at least as fast as producers send — one per cycle).
     */
    void
    advance()
    {
        if (!hasStaged_)
            return;
        assert(!hasCurrent_ && "channel overrun: message not consumed");
        cur_ ^= 1;
        hasStaged_ = false;
        hasCurrent_ = true;
        if (wakeMask_)
            *wakeMask_ |= wakeBit_;
    }

    /** True if something was staged this cycle (producer-side query). */
    bool staged() const { return hasStaged_; }

    /**
     * OR @p bit into @p *mask whenever a message becomes readable on
     * this channel. Consumers register a distinct bit per input, so
     * the mask says which inputs to read this cycle, and a zero mask
     * (with no resident state) lets an idle consumer skip its cycle
     * without ever stranding an in-flight message.
     */
    void
    setWakeFlag(std::uint64_t* mask, std::uint64_t bit)
    {
        wakeMask_ = mask;
        wakeBit_ = bit;
    }

    /**
     * Attach this channel to a simulator's pending-advance list
     * (called via ChannelBase::scheduleWith; @p self is the channel's
     * registered identity). Once attached, only written channels are
     * advanced at cycle boundaries.
     */
    void
    setAdvanceQueue(std::vector<ChannelBase*>* queue, ChannelBase* self)
    {
        advanceQueue_ = queue;
        advanceSelf_ = self;
    }

    /// @name Audit-only introspection (net::NetworkAuditor)
    /// @{
    /** The in-delivery message, or nullptr (does not consume). */
    const T*
    auditCurrent() const
    {
        return hasCurrent_ ? &slots_[cur_] : nullptr;
    }

    /** The staged (not yet delivered) message, or nullptr. */
    const T*
    auditStaged() const
    {
        return hasStaged_ ? &slots_[cur_ ^ 1] : nullptr;
    }
    /// @}

  private:
    /** slots_[cur_] is current, slots_[cur_ ^ 1] staged. */
    T slots_[2]{};
    unsigned cur_ = 0;
    bool hasCurrent_ = false;
    bool hasStaged_ = false;
    /** Simulator pending-advance list this channel enqueues on. */
    std::vector<ChannelBase*>* advanceQueue_ = nullptr;
    ChannelBase* advanceSelf_ = nullptr;
    /** Consumer wake mask and this channel's bit in it, raised when a
     * message becomes readable. */
    std::uint64_t* wakeMask_ = nullptr;
    std::uint64_t wakeBit_ = 0;
};

/** Type-erased hook for the simulator to advance channels. */
class ChannelBase
{
  public:
    virtual ~ChannelBase() = default;
    virtual void advanceChannel() = 0;

    /** Enqueue on @p queue at each write and be advanced only then
     * (write-scheduled advancing). */
    virtual void scheduleWith(std::vector<ChannelBase*>* queue) = 0;
};

/** Adapter registering a Channel<T> with the simulator. */
template <typename T>
class RegisteredChannel : public ChannelBase, public Channel<T>
{
  public:
    void advanceChannel() override { this->advance(); }

    void
    scheduleWith(std::vector<ChannelBase*>* queue) override
    {
        this->setAdvanceQueue(queue, this);
    }
};

} // namespace orion::sim

#endif // ORION_SIM_MODULE_HH
