/**
 * @file
 * Parameterized power model for FIFO buffers (the paper's Table 2).
 *
 * Router buffers are implemented as SRAM arrays: B rows (flits) of F
 * bits, with P_r read ports and P_w write ports. The model derives
 * wordline/bitline lengths from the array geometry, capacitances from
 * the circuit structure, and per-operation energies:
 *
 *   E_read = E_wl + F (E_br + 2 E_chg + E_amp)
 *   E_wrt  = E_wl + delta_bw E_bw + delta_bc E_cell
 *
 * where delta_bw is the number of switching write bitlines and
 * delta_bc the number of flipped memory cells, both monitored through
 * simulation.
 *
 * A buffer with a dedicated port to the switch does not require
 * tri-state output drivers (paper Section 3.1) — hence no output-driver
 * term appears in the read path.
 */

#ifndef ORION_POWER_BUFFER_MODEL_HH
#define ORION_POWER_BUFFER_MODEL_HH

#include "power/energy_form.hh"
#include "tech/capacitance.hh"
#include "tech/tech_node.hh"
#include "tech/transistor.hh"

namespace orion::power {

/** Architectural parameters of a FIFO buffer (Table 2). */
struct BufferParams
{
    /** Buffer size in flits (number of SRAM rows), B. */
    unsigned flits;
    /** Flit size in bits (row width), F. */
    unsigned flitBits;
    /** Number of read ports, P_r. */
    unsigned readPorts = 1;
    /** Number of write ports, P_w. */
    unsigned writePorts = 1;
};

/**
 * FIFO buffer power model.
 *
 * Constructed once per distinct buffer configuration; all capacitances
 * are computed up front, so per-event energy queries are cheap.
 */
class BufferModel
{
  public:
    BufferModel(const tech::TechNode& tech, const BufferParams& params);

    const BufferParams& params() const { return params_; }

    /// @name Geometry (Table 2 capacitance-equation inputs)
    /// @{
    /** Wordline length L_wl = F (w_cell + 2 (P_r + P_w) d_w), in um. */
    double wordlineLengthUm() const { return wordlineLengthUm_; }
    /** Bitline length L_bl = B (h_cell + (P_r + P_w) d_w), in um. */
    double bitlineLengthUm() const { return bitlineLengthUm_; }
    /** Array area assuming a rectangular layout, in um^2. */
    double areaUm2() const { return wordlineLengthUm_ * bitlineLengthUm_; }
    /// @}

    /// @name Capacitances (farads)
    /// @{
    /** C_wl = 2 F C_g(T_p) + C_a(T_wd) + C_w(L_wl). */
    double wordlineCap() const { return cWl_; }
    /** C_br = B C_d(T_p) + C_d(T_c) + C_w(L_bl). */
    double readBitlineCap() const { return cBr_; }
    /** C_bw = B C_d(T_p) + C_a(T_bd) + C_w(L_bl). */
    double writeBitlineCap() const { return cBw_; }
    /** C_chg = C_g(T_c). */
    double prechargeCap() const { return cChg_; }
    /** C_cell = 2 (P_r + P_w) C_d(T_p) + 2 C_a(T_m). */
    double cellCap() const { return cCell_; }
    /// @}

    /// @name Per-operation energies (joules)
    /// @{
    /** Sense-amplifier energy per column per read (empirical model). */
    double senseAmpEnergy() const { return eAmp_; }

    /**
     * Energy of one read: E_read = E_wl + F (E_br + 2 E_chg + E_amp).
     * Reads discharge precharged bitlines, so no data-dependent
     * activity factor applies.
     */
    double readEnergy() const;

    /**
     * Energy of one write with monitored switching activity:
     * E_wrt = E_wl + delta_bw E_bw + delta_bc E_cell.
     *
     * @param delta_bw  number of switching write bitlines
     * @param delta_bc  number of flipped memory cells
     */
    double writeEnergy(unsigned delta_bw, unsigned delta_bc) const;

    /** writeEnergy as an affine form in (delta_bw, delta_bc):
     * {E_wl, E_bw, E_cell, 0}. */
    EnergyForm writeForm() const { return {eWl_, eBw_, eCell_, 0.0}; }

    /** readEnergy as an affine form: the constant E_read. */
    EnergyForm readForm() const { return {eRead_, 0.0, 0.0, 0.0}; }

    /**
     * Average-activity write energy, for static (non-simulated)
     * estimates: assumes half the bitlines switch and a quarter of the
     * cells flip (random data against random data).
     */
    double avgWriteEnergy() const;
    /// @}

  private:
    tech::TechNode tech_;
    BufferParams params_;

    double wordlineLengthUm_;
    double bitlineLengthUm_;
    double cWl_;
    double cBr_;
    double cBw_;
    double cChg_;
    double cCell_;
    double eAmp_;
    /// @name Per-event energies cached at construction (joules) — the
    /// capacitances never change, so the hot read/write queries reduce
    /// to a load or a two-term dot product.
    /// @{
    double eWl_;
    double eBw_;
    double eCell_;
    double eRead_;
    /// @}
};

} // namespace orion::power

#endif // ORION_POWER_BUFFER_MODEL_HH
