/**
 * @file
 * The affine shape of every per-event energy in the power library.
 *
 * Each dynamic event a power model charges — a buffer write or read,
 * an arbitration, a crossbar, central-buffer or link traversal — costs
 *
 *   E(dA, dB) = base + dA perA + dB perB + [dA > 0] ifA
 *
 * joules, where dA and dB are the event's switching-activity deltas
 * (see sim::Event). Summed over n events the energy is therefore
 *
 *   n base + (sum dA) perA + (sum dB) perB + n[dA > 0] ifA,
 *
 * a function of four exact integer counts. net::PowerMonitor keeps
 * those counts per (node, event type) and evaluates this identity only
 * when energy is read, so the result depends on the multiset of events
 * and not on their order.
 */

#ifndef ORION_POWER_ENERGY_FORM_HH
#define ORION_POWER_ENERGY_FORM_HH

#include <cstdint>

namespace orion::power {

/** Coefficients (joules) of one event type's affine energy. */
struct EnergyForm
{
    /** Paid by every event. */
    double base = 0.0;
    /** Per unit of delta A. */
    double perA = 0.0;
    /** Per unit of delta B. */
    double perB = 0.0;
    /** Paid by every event whose delta A is nonzero. */
    double ifA = 0.0;

    /**
     * Energy of @p events events whose deltas sum to @p sum_a and
     * @p sum_b, @p active_a of them with a nonzero delta A.
     */
    double
    over(std::uint64_t events, std::uint64_t sum_a, std::uint64_t sum_b,
         std::uint64_t active_a) const
    {
        return static_cast<double>(events) * base +
               static_cast<double>(sum_a) * perA +
               static_cast<double>(sum_b) * perB +
               static_cast<double>(active_a) * ifA;
    }
};

} // namespace orion::power

#endif // ORION_POWER_ENERGY_FORM_HH
