#include "power/central_buffer_model.hh"

#include <cassert>

namespace orion::power {

namespace {

BufferParams
bankParams(const CentralBufferParams& p)
{
    return BufferParams{p.rowsPerBank, p.flitBits, p.readPorts,
                        p.writePorts};
}

CrossbarParams
writeXbarParams(const CentralBufferParams& p)
{
    return CrossbarParams{p.routerPorts, p.writePorts, p.flitBits,
                          CrossbarKind::Matrix, 0.0};
}

CrossbarParams
readXbarParams(const CentralBufferParams& p)
{
    return CrossbarParams{p.readPorts, p.routerPorts, p.flitBits,
                          CrossbarKind::Matrix, 0.0};
}

} // namespace

CentralBufferModel::CentralBufferModel(const tech::TechNode& tech,
                                       const CentralBufferParams& params)
    : tech_(tech),
      params_(params),
      bank_(tech, bankParams(params)),
      ff_(tech),
      writeXbar_(tech, writeXbarParams(params)),
      readXbar_(tech, readXbarParams(params))
{
    assert(params.banks > 0 && params.pipelineStages > 0);
}

double
CentralBufferModel::areaUm2() const
{
    return params_.banks * bank_.areaUm2() + writeXbar_.areaUm2() +
           readXbar_.areaUm2();
}

double
CentralBufferModel::writeEnergy(unsigned delta_bits, unsigned delta_bw,
                                unsigned delta_bc) const
{
    // Router port -> write crossbar -> pipeline registers -> bank.
    const double e_xbar = writeXbar_.traversalEnergy(delta_bits);
    const double e_pipe =
        params_.pipelineStages * delta_bits * ff_.flipEnergy();
    const double e_bank = bank_.writeEnergy(delta_bw, delta_bc);
    return e_xbar + e_pipe + e_bank;
}

double
CentralBufferModel::readEnergy(unsigned delta_bits) const
{
    const double e_bank = bank_.readEnergy();
    const double e_pipe =
        params_.pipelineStages * delta_bits * ff_.flipEnergy();
    const double e_xbar = readXbar_.traversalEnergy(delta_bits);
    return e_bank + e_pipe + e_xbar;
}

EnergyForm
CentralBufferModel::writeForm() const
{
    const EnergyForm bank = bank_.writeForm();
    const double e_pipe = params_.pipelineStages * ff_.flipEnergy();
    return {bank.base,
            writeXbar_.traversalForm().perA + e_pipe + bank.perA,
            bank.perB, 0.0};
}

EnergyForm
CentralBufferModel::readForm() const
{
    const double e_pipe = params_.pipelineStages * ff_.flipEnergy();
    return {bank_.readEnergy(), e_pipe + readXbar_.traversalForm().perA,
            0.0, 0.0};
}

double
CentralBufferModel::avgWriteEnergy() const
{
    const unsigned f = params_.flitBits;
    return writeEnergy(f / 2, f / 2, f / 4);
}

double
CentralBufferModel::avgReadEnergy() const
{
    return readEnergy(params_.flitBits / 2);
}

} // namespace orion::power
