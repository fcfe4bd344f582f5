/**
 * @file
 * Parameterized power models for crossbars (the paper's Table 3).
 *
 * Two common implementations are modeled, as in the paper:
 *
 *  - **Matrix crossbar**: I horizontal input buses of W wires each and
 *    O vertical output buses of W wires each, with a pass-transistor
 *    crosspoint connector at each (input, output) intersection. Input
 *    and output line lengths follow from the wiring grid; a traversal
 *    charges the input line, the crosspoint and the output line for
 *    every data wire that toggles.
 *
 *  - **Multiplexer-tree crossbar**: each output is a binary tree of 2:1
 *    multiplexers over the I inputs (depth ceil(log2 I)); a traversal
 *    charges one root-to-leaf path per toggling data wire.
 *
 * Crossbar *control* lines are driven by arbiter grant outputs; per the
 * paper's Appendix, their energy (E_xb_ctr) is accounted as part of the
 * arbiter's E_arb, so this model exposes controlCap()/controlEnergy()
 * for the arbiter model to consume.
 */

#ifndef ORION_POWER_CROSSBAR_MODEL_HH
#define ORION_POWER_CROSSBAR_MODEL_HH

#include "power/energy_form.hh"
#include "tech/tech_node.hh"

namespace orion::power {

/** Crossbar implementation style. */
enum class CrossbarKind
{
    Matrix,
    MuxTree,
};

/** Architectural parameters of a crossbar (Table 3). */
struct CrossbarParams
{
    /** Number of input ports, I. */
    unsigned inputs;
    /** Number of output ports, O. */
    unsigned outputs;
    /** Data path width in bits, W. */
    unsigned width;
    /** Implementation style. */
    CrossbarKind kind = CrossbarKind::Matrix;
    /**
     * Load capacitance each output must drive (e.g. the downstream
     * latch or link input), in farads. Used to size output drivers.
     */
    double outputLoadCapF = 0.0;
};

/** Crossbar power model. */
class CrossbarModel
{
  public:
    CrossbarModel(const tech::TechNode& tech, const CrossbarParams& params);

    const CrossbarParams& params() const { return params_; }

    /// @name Geometry
    /// @{
    /** Input line length L_in (um); 0 for mux-tree crossbars. */
    double inputLengthUm() const { return inLenUm_; }
    /** Output line length L_out (um). */
    double outputLengthUm() const { return outLenUm_; }
    /** Switch-fabric area assuming rectangular layout (um^2). */
    double areaUm2() const;
    /// @}

    /// @name Capacitances (farads, per single data wire)
    /// @{
    /** Capacitance charged on the input side per toggling wire. */
    double inputCap() const { return cIn_; }
    /** Capacitance charged on the output side per toggling wire. */
    double outputCap() const { return cOut_; }
    /**
     * Control line capacitance C_xb_ctr: one control wire gates the W
     * crosspoint transistors of a column (matrix) or the W select
     * inputs of a mux level (tree), plus half an input line of wire.
     */
    double controlCap() const { return cCtr_; }
    /// @}

    /// @name Energies (joules)
    /// @{
    /**
     * Energy of one flit traversal with monitored switching activity.
     *
     * @param delta_bits  number of data wires that toggle relative to
     *                    the previous value carried on this path
     */
    double traversalEnergy(unsigned delta_bits) const;

    /** traversalEnergy as an affine form in delta_bits:
     * {0, E_in + E_out, 0, 0}. */
    EnergyForm traversalForm() const { return {0.0, eWire_, 0.0, 0.0}; }

    /** Average-activity traversal (half the wires toggle). */
    double avgTraversalEnergy() const;

    /**
     * Energy of switching one control line (full swing). Charged by
     * the arbiter model as part of E_arb, without an activity factor
     * (each arbitration reconfigures exactly one column).
     */
    double controlEnergy() const;
    /// @}

  private:
    tech::TechNode tech_;
    CrossbarParams params_;
    double inLenUm_;
    double outLenUm_;
    double cIn_;
    double cOut_;
    double cCtr_;
    /** switchEnergy(cIn_) + switchEnergy(cOut_), cached: the per-wire
     * traversal energy evaluated once per crossbar transit. */
    double eWire_;
};

} // namespace orion::power

#endif // ORION_POWER_CROSSBAR_MODEL_HH
