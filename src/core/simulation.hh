/**
 * @file
 * orion::Simulation — the top-level run loop implementing the paper's
 * Section 4.1 measurement protocol:
 *
 *  "Each simulation is run for a warm-up phase of 1000 cycles with
 *   10,000 packets injected thereafter and the simulation continued at
 *   the prescribed packet injection rate till these packets in the
 *   sample space have all been received, and their average latency
 *   calculated. ... The simulator records energy consumption of each
 *   component of a node over the entire simulation excluding the first
 *   1000 cycles. Average power is then computed by multiplying the
 *   total energy by frequency and then dividing by total simulation
 *   cycles."
 */

#ifndef ORION_CORE_SIMULATION_HH
#define ORION_CORE_SIMULATION_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "base/profile.hh"
#include "core/config.hh"
#include "core/report.hh"
#include "net/audit.hh"
#include "net/deadlock.hh"
#include "net/fault.hh"
#include "net/health.hh"
#include "net/network.hh"
#include "net/power_monitor.hh"
#include "net/sampler.hh"
#include "sim/simulator.hh"
#include "sim/telemetry.hh"

namespace orion {

/** Per-component-class average power, in watts. */
struct PowerBreakdown
{
    double buffer = 0.0;
    double crossbar = 0.0;
    double arbiter = 0.0;
    double link = 0.0;
    double centralBuffer = 0.0;

    double
    total() const
    {
        return buffer + crossbar + arbiter + link + centralBuffer;
    }
};

/** Everything one simulation run reports. */
struct Report
{
    /// @name Performance
    /// @{
    /** Mean latency of sample packets, in cycles (creation to tail
     * ejection, source queuing included). */
    double avgLatencyCycles = 0.0;
    /** Latency distribution quantiles of the sample (cycles). */
    double p50LatencyCycles = 0.0;
    double p95LatencyCycles = 0.0;
    double p99LatencyCycles = 0.0;
    /** Worst sample-packet latency observed (cycles). */
    double maxLatencyCycles = 0.0;
    std::uint64_t sampleInjected = 0;
    std::uint64_t sampleEjected = 0;
    /** Offered load: packets/cycle/injecting-node. */
    double offeredLoad = 0.0;
    /** Accepted throughput: flits/cycle/node over the window. */
    double acceptedFlitsPerNodePerCycle = 0.0;
    /// @}

    /// @name Run metadata
    /// @{
    sim::Cycle totalCycles = 0;
    sim::Cycle measuredCycles = 0;
    /** Structured stop reason — why this run ended. The two bools
     * below are kept in sync for backward compatibility. */
    StopReason stopReason = StopReason::MaxCycles;
    /** Diagnostic of the invariant that fired when stopReason is
     * CheckFailure; empty otherwise. */
    std::string checkFailureDiagnostic;
    /** True if every sample packet arrived before the cycle cap. */
    bool completed = false;
    /** True if the progress watchdog fired (deadlock or total
     * saturation collapse). */
    bool deadlockSuspected = false;
    std::size_t moduleCount = 0;
    /// @}

    /// @name Fault injection and recovery (all zero without faults)
    /// @{
    std::uint64_t flitsCorrupted = 0;
    std::uint64_t flitsOutageDropped = 0;
    std::uint64_t flitsDiscarded = 0;
    std::uint64_t packetsRetransmitted = 0;
    std::uint64_t packetsLost = 0;
    /** Deterministic fingerprint of the full fault log. */
    std::uint64_t faultLogHash = 0;
    /** Packets dropped at the source because no surviving path to
     * their destination existed (rerouting enabled only). */
    std::uint64_t packetsUnreachable = 0;
    /** Source routes rebuilt around dead links (rerouting only). */
    std::uint64_t reroutes = 0;
    /** Runtime deadlock detections / successful recoveries (deadlock
     * detector only). */
    std::uint64_t deadlocksDetected = 0;
    std::uint64_t deadlocksRecovered = 0;
    /// @}

    /// @name Power (measurement window only)
    /// @{
    double networkPowerWatts = 0.0;
    /** Dynamic (event-driven) energy over the window, joules —
     * excludes constant chip-to-chip link power. */
    double dynamicEnergyJoules = 0.0;
    /** Dynamic energy per delivered flit (J/flit); the efficiency
     * number energy-proportional designs optimize. */
    double energyPerFlitJoules = 0.0;
    PowerBreakdown breakdownWatts;
    /** Average power per node, for spatial maps (paper Figure 6). */
    std::vector<double> nodePowerWatts;
    /// @}

    /// @name Event counts over the measurement window
    /// @{
    std::array<std::uint64_t, sim::kNumEventTypes> eventCounts{};
    /// @}
};

/** One configured network + workload, runnable once. */
class Simulation
{
  public:
    /** Validates the network, traffic and measurement protocol (and
     * the fault schedule when faults, rerouting or deadlock detection
     * are on). @throw std::invalid_argument on a malformed
     * configuration. */
    Simulation(const NetworkConfig& network, const TrafficConfig& traffic,
               const SimConfig& sim);
    ~Simulation();

    /**
     * Execute the full warm-up/sample/drain protocol.
     *
     * Never throws for in-protocol failures: an ORION_CHECK /
     * ORION_AUDIT violation is caught and returned as a report with
     * stopReason == StopReason::CheckFailure and the diagnostic in
     * checkFailureDiagnostic (the Simulation object stays alive for
     * forensics — see core/forensics.hh). Configuration errors still
     * throw from the constructor.
     */
    Report run();

    /** Advance the network @p cycles cycles (for custom protocols). */
    void step(sim::Cycle cycles);

    /// @name Component access (examples, tests, custom studies)
    /// @{
    net::Network& network() { return *network_; }
    net::PowerMonitor& monitor() { return *monitor_; }
    sim::Simulator& simulator() { return sim_; }
    net::NetworkAuditor& auditor() { return *auditor_; }
    const NetworkConfig& networkConfig() const { return netCfg_; }
    const SimConfig& simConfig() const { return simCfg_; }
    /** The fault injector, or nullptr in fault-free runs. */
    const net::FaultInjector* faultInjector() const
    {
        return faults_.get();
    }
    /** The surviving-topology monitor, or nullptr unless
     * SimConfig::rerouteOnOutage is set. */
    const net::HealthMonitor* healthMonitor() const
    {
        return health_.get();
    }
    /** The runtime deadlock detector, or nullptr unless
     * SimConfig::deadlockDetect.enabled is set. */
    const net::DeadlockDetector* deadlockDetector() const
    {
        return detector_.get();
    }
    /**
     * Per-router cycles without forwarding progress while holding
     * resident flits, tracked at watchdog granularity during the drain
     * phase — the forensic snapshot's stall map. Empty before run().
     */
    const std::vector<sim::Cycle>& routerFrozenCycles() const
    {
        return routerFrozenCycles_;
    }
    /// @}

    /// @name Telemetry (null unless SimConfig::telemetry enables it)
    /// @{
    /** The metric registry, or nullptr with telemetry disabled. */
    const telemetry::MetricsRegistry* metrics() const
    {
        return metrics_.get();
    }
    /** The windowed sampler, or nullptr without --sample-interval. */
    const net::WindowedSampler* sampler() const
    {
        return sampler_.get();
    }
    /** The flit tracer, or nullptr without --trace-out. */
    const telemetry::FlitTracer* tracer() const
    {
        return tracer_.get();
    }

    /** The kernel phase profiler, or nullptr unless
     * SimConfig::profilePhases is set. Populated after run(). */
    const core::PhaseProfiler* phaseProfiler() const
    {
        return profiler_.get();
    }

    /** The sampled time series as long-format CSV (empty string when
     * the sampler is disabled). */
    std::string metricsCsv() const;
    /** The retained trace as Chrome trace-event JSON (empty string
     * when tracing is disabled). @p label lands in the trace
     * metadata. */
    std::string traceJson(const std::string& label) const;
    /// @}

  private:
    /** Phases 1-4 of the measurement protocol; may throw
     * core::CheckFailure from a periodic or final audit. */
    void runProtocol(Report& r);
    /** Copy the injector's counters into @p r (no-op without
     * faults). */
    void fillFaultStats(Report& r) const;

    NetworkConfig netCfg_;
    TrafficConfig trafficCfg_;
    SimConfig simCfg_;

    sim::Simulator sim_;
    /** Declared before network_: routers/links/nodes hold raw
     * pointers into the injector, so it must outlive them. */
    std::unique_ptr<net::FaultInjector> faults_;
    std::unique_ptr<net::Network> network_;
    /** Robustness subsystems (null unless enabled; both observe the
     * network, so they are declared after it and destroyed first). */
    std::unique_ptr<net::HealthMonitor> health_;
    std::unique_ptr<net::DeadlockDetector> detector_;
    std::unique_ptr<net::PowerMonitor> monitor_;
    std::unique_ptr<net::NetworkAuditor> auditor_;
    /** Telemetry (all null when SimConfig::telemetry is disabled, so
     * the hot path is untouched). The registry's readers point into
     * network_/monitor_/faults_; destruction order (members above
     * outlive these only by declaration order — registry last) is
     * safe because readers never run after run() returns. */
    std::unique_ptr<telemetry::MetricsRegistry> metrics_;
    std::unique_ptr<net::WindowedSampler> sampler_;
    std::unique_ptr<telemetry::FlitTracer> tracer_;
    /** Kernel phase profiler (null unless SimConfig::profilePhases). */
    std::unique_ptr<core::PhaseProfiler> profiler_;
    /** Per-router stall map for forensics (see routerFrozenCycles). */
    std::vector<sim::Cycle> routerFrozenCycles_;
};

} // namespace orion

#endif // ORION_CORE_SIMULATION_HH
