/**
 * @file
 * Parameterized power models for arbiters (the paper's Table 4).
 *
 * Three arbiter styles are modeled, as in the paper:
 *
 *  - **Matrix arbiter**: an R(R-1)/2 triangular matrix of priority
 *    flip-flops, with grant logic built from two levels of NOR gates
 *    (T_N1, T_N2) and an inverter (T_I): grant_i is asserted when
 *    request_i is high and no higher-priority pending request exists.
 *    On a grant, the winner's priority row/column is updated (R-1
 *    flip-flops may toggle).
 *
 *  - **Round-robin arbiter**: a rotating one-hot priority token held in
 *    R flip-flops, with the same two-level grant logic.
 *
 *  - **Queuing arbiter**: requesters enter a FIFO of log2(R)-bit
 *    entries; the head is granted. Modeled hierarchically by reusing
 *    the FIFO buffer model (Section 3.2 reuse argument).
 *
 * Per the Appendix:
 *  - E_xb_ctr (crossbar control-line energy) is part of E_arb because
 *    arbiter grant signals drive crossbar control signals.
 *  - No switching-activity factor applies to E_gnt and E_xb_ctr, since
 *    each arbitration grants exactly one request.
 */

#ifndef ORION_POWER_ARBITER_MODEL_HH
#define ORION_POWER_ARBITER_MODEL_HH

#include <memory>

#include "power/buffer_model.hh"
#include "power/flipflop_model.hh"
#include "tech/tech_node.hh"

namespace orion::power {

/** Arbiter implementation style. */
enum class ArbiterKind
{
    Matrix,
    RoundRobin,
    Queuing,
};

/** Architectural parameters of an arbiter. */
struct ArbiterParams
{
    /** Number of requesters, R. */
    unsigned requests;
    /** Implementation style. */
    ArbiterKind kind = ArbiterKind::Matrix;
    /**
     * Capacitance of the crossbar control line the grant output drives
     * (C_xb_ctr from the crossbar model); 0 if the arbiter does not
     * drive a crossbar (e.g. a VC allocator).
     */
    double crossbarControlCapF = 0.0;
};

/** Arbiter power model. */
class ArbiterModel
{
  public:
    ArbiterModel(const tech::TechNode& tech, const ArbiterParams& params);

    const ArbiterParams& params() const { return params_; }

    /** Number of priority flip-flops in the design. */
    unsigned priorityFlipFlops() const;

    /// @name Capacitances (farads)
    /// @{
    /** Request line: drives (R-1) first-level NOR gates + wire. */
    double requestCap() const { return cReq_; }
    /** Priority flip-flop output: drives 2 first-level NOR gates. */
    double priorityCap() const { return cPri_; }
    /** Internal node between the NOR levels. */
    double internalCap() const { return cInt_; }
    /** Grant line: second-level NOR output + inverter + wire. */
    double grantCap() const { return cGnt_; }
    /// @}

    /// @name Energies (joules)
    /// @{
    /**
     * Energy of one arbitration with monitored switching activity:
     *
     *   E_arb = delta_req E_req + delta_int E_int + delta_pri E_pri
     *           + E_gnt + E_xb_ctr
     *
     * @param delta_req  request lines that changed since the last
     *                   arbitration
     * @param delta_pri  priority flip-flops that toggled (matrix: up to
     *                   R-1 on a grant; round-robin: 2 — token moves)
     */
    double arbitrationEnergy(unsigned delta_req, unsigned delta_pri) const;

    /**
     * arbitrationEnergy as an affine form in (delta_req, delta_pri).
     * Matrix and round-robin: {E_gnt, E_req + E_int, E_pri, 0}.
     * Queuing: {E_gnt + E_fifo_read, 0, 0, E_fifo_write}, the write
     * paid only when some request line changed.
     */
    EnergyForm arbitrationForm() const;

    /**
     * Average-activity arbitration energy for static estimates:
     * assumes half the request lines toggle and a typical priority
     * update for the arbiter kind.
     */
    double avgArbitrationEnergy() const;
    /// @}

  private:
    tech::TechNode tech_;
    ArbiterParams params_;
    FlipFlopModel ff_;
    /** Present only for the queuing arbiter. */
    std::unique_ptr<BufferModel> queueFifo_;

    double cReq_;
    double cPri_;
    double cInt_;
    double cGnt_;
    /// @name Per-event energies cached at construction (joules).
    /// @{
    double eReq_;
    double ePri_;
    double eInt_;
    double eGnt_;
    /// @}
};

} // namespace orion::power

#endif // ORION_POWER_ARBITER_MODEL_HH
