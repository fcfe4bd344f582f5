/**
 * @file
 * Hierarchical power model for central buffers (paper Section 3.2).
 *
 * "Central buffers are implemented as pipelined shared memories,
 * essentially regular SRAM banks connected by pipeline registers, with
 * two crossbars facilitating the pipelined data I/O. We reused our FIFO
 * buffer model for the SRAM banks, and the flip-flop subcomponent
 * models from our arbiter model for the pipeline registers. The two
 * crossbars are modeled with our crossbar power model."
 *
 * This class is exactly that composition: it owns a BufferModel (per
 * bank), a FlipFlopModel (pipeline registers), and two CrossbarModels
 * (port-to-bank write fabric, bank-to-port read fabric), and derives
 * per-operation write/read energies from them.
 */

#ifndef ORION_POWER_CENTRAL_BUFFER_MODEL_HH
#define ORION_POWER_CENTRAL_BUFFER_MODEL_HH

#include "power/buffer_model.hh"
#include "power/crossbar_model.hh"
#include "power/flipflop_model.hh"
#include "tech/tech_node.hh"

namespace orion::power {

/** Architectural parameters of a pipelined shared central buffer. */
struct CentralBufferParams
{
    /** Number of SRAM banks (each one flit wide). */
    unsigned banks;
    /** Rows per bank ("chunks"). */
    unsigned rowsPerBank;
    /** Flit width in bits. */
    unsigned flitBits;
    /** Read ports into the shared memory. */
    unsigned readPorts;
    /** Write ports into the shared memory. */
    unsigned writePorts;
    /** Router ports the I/O crossbars connect to. */
    unsigned routerPorts;
    /** Pipeline depth of the shared-memory datapath. */
    unsigned pipelineStages = 2;
};

/** Central buffer power model (hierarchical composition). */
class CentralBufferModel
{
  public:
    CentralBufferModel(const tech::TechNode& tech,
                       const CentralBufferParams& params);

    const CentralBufferParams& params() const { return params_; }

    /** The reused per-bank SRAM model. */
    const BufferModel& bankModel() const { return bank_; }
    /** The write-side crossbar (router ports -> write ports). */
    const CrossbarModel& writeCrossbar() const { return writeXbar_; }
    /** The read-side crossbar (read ports -> router ports). */
    const CrossbarModel& readCrossbar() const { return readXbar_; }

    /** Total area: banks + both crossbars (um^2). */
    double areaUm2() const;

    /**
     * Energy of writing one flit into the central buffer: write-side
     * crossbar traversal + pipeline register flips + bank write.
     *
     * @param delta_bits  toggling datapath wires vs. the previous flit
     *                    on this path (used for crossbar + registers)
     * @param delta_bw    switching write bitlines in the bank
     * @param delta_bc    flipped memory cells in the bank
     */
    double writeEnergy(unsigned delta_bits, unsigned delta_bw,
                       unsigned delta_bc) const;

    /**
     * Energy of reading one flit: bank read + pipeline register flips
     * + read-side crossbar traversal.
     */
    double readEnergy(unsigned delta_bits) const;

    /**
     * writeEnergy(dA, dA, dB) as an affine form in (dA, dB): the
     * flit's toggling wires drive the write crossbar, the pipeline
     * registers and the bank's write bitlines alike, and dB cells flip.
     */
    EnergyForm writeForm() const;

    /** readEnergy as an affine form in delta_bits. */
    EnergyForm readForm() const;

    /** Average-activity variants for static estimates. */
    double avgWriteEnergy() const;
    double avgReadEnergy() const;

  private:
    tech::TechNode tech_;
    CentralBufferParams params_;
    BufferModel bank_;
    FlipFlopModel ff_;
    CrossbarModel writeXbar_;
    CrossbarModel readXbar_;
};

} // namespace orion::power

#endif // ORION_POWER_CENTRAL_BUFFER_MODEL_HH
