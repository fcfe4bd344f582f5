#include "power/arbiter_model.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "tech/capacitance.hh"
#include "tech/transistor.hh"

namespace orion::power {

using tech::Role;
using tech::Transistor;
using tech::ca;
using tech::cd;
using tech::cg;
using tech::cw;

ArbiterModel::ArbiterModel(const tech::TechNode& tech,
                           const ArbiterParams& params)
    : tech_(tech), params_(params), ff_(tech)
{
    assert(params.requests >= 1);

    const unsigned r = params.requests;
    const Transistor n1 = defaultTransistor(tech, Role::ArbiterNor1);
    const Transistor n2 = defaultTransistor(tech, Role::ArbiterNor2);
    const Transistor inv = defaultTransistor(tech, Role::ArbiterInverter);

    // Short local wiring: the arbiter cell for requester i spans about
    // one wire pitch per requester.
    const double local_wire_um = r * tech.wirePitchUm;

    // Request line i fans out to the (R-1) first-level NOR gates that
    // compare it against every other requester.
    cReq_ = (r > 1 ? (r - 1) : 1) * cg(tech, n1) +
            cw(tech, local_wire_um);

    // A priority flip-flop output drives the two first-level NOR gates
    // of the (i, j) pair it orders, plus the flip-flop's own output
    // diffusion.
    cPri_ = 2.0 * cg(tech, n1) + ff_.flipCap();

    // Internal node between NOR levels: NOR1 output diffusion plus one
    // NOR2 input gate.
    cInt_ = cd(tech, n1) + cg(tech, n2);

    // Grant line: NOR2 output diffusion, the buffering inverter, local
    // wire, and — since grant drives the crossbar configuration — the
    // crossbar control line (E_xb_ctr folded into E_arb, Appendix).
    cGnt_ = cd(tech, n2) + ca(tech, inv) + cw(tech, local_wire_um) +
            params.crossbarControlCapF;

    if (params.kind == ArbiterKind::Queuing) {
        // Queue of R entries, each holding a requester id of
        // ceil(log2 R) bits (at least 1).
        const unsigned id_bits =
            std::max<unsigned>(1, r <= 1 ? 1 : std::bit_width(r - 1));
        queueFifo_ = std::make_unique<BufferModel>(
            tech, BufferParams{r, id_bits, 1, 1});
    }

    // Cache the per-event energy terms: the capacitances are fixed and
    // arbitrationEnergy runs once per arbitration, every cycle.
    eReq_ = tech.switchEnergy(cReq_);
    eInt_ = tech.switchEnergy(cInt_);
    ePri_ = tech.switchEnergy(cPri_);
    eGnt_ = tech.switchEnergy(cGnt_);
}

unsigned
ArbiterModel::priorityFlipFlops() const
{
    const unsigned r = params_.requests;
    switch (params_.kind) {
      case ArbiterKind::Matrix:
        return r * (r - 1) / 2;
      case ArbiterKind::RoundRobin:
        return r;
      case ArbiterKind::Queuing:
        return 0;
    }
    return 0;
}

double
ArbiterModel::arbitrationEnergy(unsigned delta_req,
                                unsigned delta_pri) const
{
    assert(delta_req <= params_.requests);
    assert(delta_pri <= std::max(priorityFlipFlops(), 2u) ||
           params_.kind == ArbiterKind::Queuing);

    const double e_req = eReq_;
    const double e_int = eInt_;
    const double e_pri = ePri_;
    const double e_gnt = eGnt_;

    if (params_.kind == ArbiterKind::Queuing) {
        // A queuing arbitration is one FIFO read (pop the winner) plus
        // the request lines that changed writing into the queue, plus
        // the grant (and crossbar control) energy.
        const unsigned id_bits = queueFifo_->params().flitBits;
        double e = e_gnt + queueFifo_->readEnergy();
        e += delta_req > 0
                 ? queueFifo_->writeEnergy(id_bits / 2, id_bits / 2)
                 : 0.0;
        return e;
    }

    // Each changed request line toggles its line and the internal
    // nodes of the NOR gates it feeds; the single grant and its
    // crossbar control line always switch (no activity factor).
    const double e = delta_req * (e_req + e_int) + delta_pri * e_pri +
                     e_gnt;
    return e;
}

EnergyForm
ArbiterModel::arbitrationForm() const
{
    if (params_.kind == ArbiterKind::Queuing) {
        const unsigned id_bits = queueFifo_->params().flitBits;
        return {eGnt_ + queueFifo_->readEnergy(), 0.0, 0.0,
                queueFifo_->writeEnergy(id_bits / 2, id_bits / 2)};
    }
    return {eGnt_, eReq_ + eInt_, ePri_, 0.0};
}

double
ArbiterModel::avgArbitrationEnergy() const
{
    const unsigned r = params_.requests;
    switch (params_.kind) {
      case ArbiterKind::Matrix:
        // Half the request lines toggle; a grant flips the winner's
        // priority row/column: R-1 flip-flops.
        return arbitrationEnergy(r / 2, r > 0 ? r - 1 : 0);
      case ArbiterKind::RoundRobin:
        // Token moves: exactly 2 flip-flops toggle.
        return arbitrationEnergy(r / 2, std::min(r, 2u));
      case ArbiterKind::Queuing:
        return arbitrationEnergy(1, 0);
    }
    return 0.0;
}

} // namespace orion::power
