/**
 * @file
 * The power monitor: the glue between the event subsystem and the
 * component power models (paper Figure 1 / Section 2.1).
 *
 * "Power models in the power simulation library are hooked to these
 * events so when an event occurs during the execution, it triggers the
 * specific power model, which calculates and accumulates the energy
 * consumed."
 *
 * The monitor does not subscribe to the bus: it attaches an exact
 * integer sim::ActivityTally, which EventBus::emit bumps inline for
 * every power event. Every per-event energy is affine in the event's
 * deltas (power/energy_form.hh), so the energy of a (node, component
 * class) is evaluated from those counts only when it is read, and is a
 * pure function of the multiset of events. Average power is
 * E x f_clk / cycles (paper Section 4.1). Chip-to-chip links draw
 * constant power independent of traffic and are folded in at reporting
 * time.
 */

#ifndef ORION_NET_POWER_MONITOR_HH
#define ORION_NET_POWER_MONITOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "power/arbiter_model.hh"
#include "power/buffer_model.hh"
#include "power/central_buffer_model.hh"
#include "power/crossbar_model.hh"
#include "power/energy_form.hh"
#include "power/link_model.hh"
#include "sim/event.hh"
#include "tech/tech_node.hh"

namespace orion::net {

/** Component classes energy is attributed to (paper Figure 5(c)). */
enum class ComponentClass : unsigned
{
    Buffer,
    Crossbar,
    Arbiter,
    Link,
    CentralBuffer,
};

constexpr unsigned kNumComponentClasses = 5;

/** Human-readable component-class name. */
const char* componentClassName(ComponentClass c);

/** The set of power models instantiated for one router design. */
struct PowerModelSet
{
    tech::TechNode tech;
    /** Input buffer model (always present). */
    std::unique_ptr<power::BufferModel> buffer;
    /** Main crossbar (absent for CB routers). */
    std::unique_ptr<power::CrossbarModel> crossbar;
    /** Switch arbiter (per output port). */
    std::unique_ptr<power::ArbiterModel> switchArbiter;
    /** VC allocation arbiter (VC routers only). */
    std::unique_ptr<power::ArbiterModel> vcArbiter;
    /** Central buffer (CB routers only). */
    std::unique_ptr<power::CentralBufferModel> centralBuffer;
    /** On-chip link (traffic-sensitive); mutually exclusive with
     * chipToChipLink. */
    std::unique_ptr<power::OnChipLinkModel> onChipLink;
    /** Chip-to-chip link (constant power). */
    std::unique_ptr<power::ChipToChipLinkModel> chipToChipLink;
};

/** Counts the bus's power events and charges them to power models. */
class PowerMonitor
{
  public:
    /**
     * @param links_per_node  outgoing inter-router links of each node
     *                        (for constant-power chip-to-chip links);
     *                        its size is the node count
     */
    PowerMonitor(sim::EventBus& bus, PowerModelSet models,
                 std::vector<unsigned> links_per_node);

    /** Every one of @p num_nodes nodes has @p links_per_node links
     * (a torus). */
    PowerMonitor(sim::EventBus& bus, PowerModelSet models,
                 unsigned num_nodes, unsigned links_per_node);

    /** Frees the bus's tally slot. */
    ~PowerMonitor();

    /** The bus holds a pointer to the tally: the monitor stays put. */
    PowerMonitor(const PowerMonitor&) = delete;
    PowerMonitor& operator=(const PowerMonitor&) = delete;

    const PowerModelSet& models() const { return models_; }

    /** The exact activity counts energy is evaluated from. */
    const sim::ActivityTally& activity() const { return tally_; }

    /** Dynamic energy of @p node, class @p c (joules). */
    double energy(int node, ComponentClass c) const;

    /** Dynamic energy of class @p c over all nodes. */
    double totalEnergy(ComponentClass c) const;

    /** Dynamic energy over all nodes and classes. */
    double totalEnergy() const;

    /**
     * Average power of @p node over @p cycles measured cycles,
     * including constant chip-to-chip link power if configured.
     */
    double nodePower(int node, double cycles) const;

    /** Average power of class @p c across the network. */
    double classPower(ComponentClass c, double cycles) const;

    /** Total network power over @p cycles measured cycles. */
    double networkPower(double cycles) const;

    /** Count of events seen for @p type since the last reset. */
    std::uint64_t eventCount(sim::EventType type) const;

    /** Per-(node, class) energy ledger, energy(node, class) for
     * every pair (for audits). */
    std::vector<std::array<double, kNumComponentClasses>>
    energyLedger() const;

    /** Zero all activity counts (end of warm-up, paper 4.1). */
    void reset();

  private:
    /** Dynamic energy of @p node per class: each type's form over its
     * counts, added into its class in type order. */
    std::array<double, kNumComponentClasses> nodeEnergy(int node) const;

    sim::EventBus& bus_;
    PowerModelSet models_;
    /** Outgoing inter-router links of each node. */
    std::vector<unsigned> linksPerNode_;
    /** Their sum: the network's inter-router link count. */
    unsigned totalLinks_;
    /** Per power event type, the affine form of its energy (all zero
     * where the design has no model for it). */
    std::array<power::EnergyForm, sim::kNumPowerEventTypes> forms_;
    sim::ActivityTally tally_;
};

} // namespace orion::net

#endif // ORION_NET_POWER_MONITOR_HH
