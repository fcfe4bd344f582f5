/**
 * @file
 * Link power models (paper Sections 3.2 and 4.2/4.4).
 *
 * The paper distinguishes two very different link regimes:
 *
 *  - **On-chip links** are plain wires: power is capacitive and
 *    traffic-sensitive. The paper's Section 4.2 uses 1.08 pF per 3 mm
 *    in 0.1 um technology; E_link is computed from link capacitance
 *    and link switching activity reported by the simulator.
 *
 *  - **Chip-to-chip links** (e.g. the IBM InfiniBand 12X, 3 W at
 *    30 Gb/s) use differential signaling and "consume almost the same
 *    power regardless of link activity" — modeled as a constant power
 *    draw per link, independent of traffic (Section 4.4).
 */

#ifndef ORION_POWER_LINK_MODEL_HH
#define ORION_POWER_LINK_MODEL_HH

#include "power/energy_form.hh"
#include "tech/tech_node.hh"

namespace orion::power {

/** Traffic-sensitive capacitive on-chip link. */
class OnChipLinkModel
{
  public:
    /**
     * @param tech       technology node (supplies Vdd and default
     *                   per-um wire capacitance)
     * @param length_um  physical link length in um
     * @param width      number of data wires (flit width)
     */
    OnChipLinkModel(const tech::TechNode& tech, double length_um,
                    unsigned width);

    double lengthUm() const { return lengthUm_; }
    unsigned width() const { return width_; }

    /** Capacitance of a single wire of the link, in farads. */
    double wireCap() const { return cWire_; }

    /**
     * Energy of one flit traversal: each toggling wire charges its
     * full wire capacitance plus its driver.
     *
     * @param delta_bits  wires that toggle vs. the previous flit
     */
    double traversalEnergy(unsigned delta_bits) const;

    /** traversalEnergy as an affine form in delta_bits:
     * {0, E_wire, 0, 0}. */
    EnergyForm traversalForm() const { return {0.0, eWire_, 0.0, 0.0}; }

    /** Average-activity traversal (half the wires toggle). */
    double avgTraversalEnergy() const;

  private:
    tech::TechNode tech_;
    double lengthUm_;
    unsigned width_;
    double cWire_;
    /** switchEnergy(cWire_), cached — one traversal per link cycle. */
    double eWire_;
};

/** Traffic-insensitive constant-power chip-to-chip link. */
class ChipToChipLinkModel
{
  public:
    /**
     * @param power_watts  constant electrical power of the link
     *                     (default 3 W per the IBM InfiniBand 12X
     *                     datasheet figure used in Section 4.4)
     */
    explicit ChipToChipLinkModel(double power_watts = 3.0);

    double powerWatts() const { return powerWatts_; }

    /**
     * Energy consumed over @p cycles clock cycles at period
     * @p cycle_period_s — constant regardless of traffic.
     */
    double energyOver(double cycle_period_s, double cycles) const;

  private:
    double powerWatts_;
};

} // namespace orion::power

#endif // ORION_POWER_LINK_MODEL_HH
