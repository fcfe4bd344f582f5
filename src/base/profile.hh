/**
 * @file
 * Kernel phase profiler: wall-time attribution across the simulator's
 * stages (docs/OBSERVABILITY.md, "Run-level observability").
 *
 * Two granularities:
 *
 *  - Cycle phases (router_advance, channel_advance, audit, periodic):
 *    timed inside Simulator::step() on a strided sample of cycles.
 *    The stride (17) is coprime to every power-of-two interval in the
 *    system (audit interval, telemetry sample interval), so periodic
 *    work is sampled at its true frequency instead of being aliased.
 *    Shares are computed over the sampled total, which estimates the
 *    full run's distribution.
 *
 *  - Run phases (warmup, measure, drain): absolute wall times of the
 *    simulation protocol's stages, recorded once by Simulation.
 *
 * Profiling is opt-in (--profile-phases). Disabled, the simulator pays
 * one null-pointer test per cycle stage; the results are bit-identical
 * either way because the profiler only reads clocks. The run manifest
 * turns the totals into shares (core::phaseShares).
 */
#ifndef ORION_BASE_PROFILE_HH
#define ORION_BASE_PROFILE_HH

#include <array>
#include <cstdint>

namespace orion::core {

class PhaseProfiler
{
  public:
    enum class Phase : unsigned
    {
        RouterAdvance = 0, ///< module cycle() loop
        ChannelAdvance,    ///< channel boundary advances
        Audit,             ///< periodic invariant audits
        Periodic,          ///< telemetry/progress hooks
        Warmup,            ///< protocol phase 1
        Measure,           ///< protocol phase 3 (includes drain tail)
        Drain,             ///< final audits + report assembly
        Count
    };
    static constexpr unsigned kNumPhases =
        static_cast<unsigned>(Phase::Count);
    /// Cycle sampling stride; prime so power-of-two periodic work
    /// (audits at 1024, samplers at 1000/4096) is not aliased.
    static constexpr std::uint64_t kStride = 17;

    /// @name Cycle-phase API (called by Simulator::step)
    /// @{
    /** Open a cycle; decides whether this cycle is sampled and, if
     * so, marks the phase start time. */
    void beginCycle();
    /// True when the current cycle is being timed.
    bool sampling() const { return sampling_; }
    /** Close the current phase: accumulate wall time since the last
     * mark into @p phase and re-mark. Only meaningful while
     * sampling(). */
    void phaseDone(Phase phase);
    /// @}

    /// Record an absolute run-phase duration (Simulation protocol).
    void addRunSeconds(Phase phase, double seconds);

    std::uint64_t cycles() const { return cycles_; }
    std::uint64_t sampledCycles() const { return sampled_; }
    double seconds(Phase phase) const;

    static const char* phaseName(Phase phase);

  private:
    std::array<double, kNumPhases> seconds_{};
    std::uint64_t cycles_ = 0;
    std::uint64_t sampled_ = 0;
    double mark_ = 0.0;
    bool sampling_ = false;
};

} // namespace orion::core

#endif // ORION_BASE_PROFILE_HH
