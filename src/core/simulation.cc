#include "core/simulation.hh"

#include <cassert>
#include <chrono>
#include <cmath>
#include <csignal>
#include <sstream>

#include "base/cancel.hh"
#include "base/check.hh"
#include "sim/rng.hh"

namespace orion {

namespace {

/** deriveSeed salt for the default fault-seed stream, decorrelating
 * fault schedules from traffic RNG streams of the same base seed. */
constexpr std::uint64_t kFaultSeedSalt = 0xFA17'5EEDULL;

/** Cycles between live-progress counter publications (one relaxed
 * atomic store each; see SimConfig::progressCycles). */
constexpr sim::Cycle kProgressCycleInterval = 4096;

/** Monotonic wall clock for the opt-in phase profiler (observability
 * only; never feeds results). */
double
profileSeconds()
{
    const auto now =
        std::chrono::steady_clock::now() // lint-allow: nondeterminism -- profiling only
            .time_since_epoch();
    return std::chrono::duration<double>(now).count();
}

} // namespace

Simulation::Simulation(const NetworkConfig& network,
                       const TrafficConfig& traffic, const SimConfig& sim)
    : netCfg_(network), trafficCfg_(traffic), simCfg_(sim)
{
    netCfg_.validate();
    validateTraffic(netCfg_, trafficCfg_);
    simCfg_.validate();
    // Rerouting and deadlock recovery ride on the fault machinery
    // (resolved outage schedules, NACK/retransmit), so either feature
    // instantiates the injector even with no faults configured.
    if (simCfg_.fault.enabled() || simCfg_.rerouteOnOutage ||
        simCfg_.deadlockDetect.enabled) {
        simCfg_.fault.validate();
        const std::uint64_t fault_seed =
            simCfg_.fault.faultSeed != 0
                ? simCfg_.fault.faultSeed
                : sim::deriveSeed(simCfg_.seed, kFaultSeedSalt, 0);
        faults_ = std::make_unique<net::FaultInjector>(
            simCfg_.fault, fault_seed, netCfg_.net.flitBits);
    }
    network_ = std::make_unique<net::Network>(sim_, netCfg_.net,
                                              trafficCfg_, simCfg_.seed,
                                              faults_.get());
    // Robustness subsystems register after the network's routers and
    // nodes, so they observe each cycle's settled state one cycle
    // behind the modules they watch — deterministically, at any
    // --jobs, since they run on the simulator's in-order module list.
    if (simCfg_.rerouteOnOutage) {
        health_ = std::make_unique<net::HealthMonitor>(
            network_->topology(), network_->linkRecords(), *faults_,
            netCfg_.net.deadlock);
        sim_.add(health_.get());
        const unsigned nn = network_->topology().numNodes();
        for (unsigned i = 0; i < nn; ++i) {
            network_->endpoint(static_cast<int>(i))
                .setHealthMonitor(health_.get());
        }
    }
    if (simCfg_.deadlockDetect.enabled) {
        detector_ = std::make_unique<net::DeadlockDetector>(
            *network_, simCfg_.deadlockDetect);
        sim_.add(detector_.get());
    }
    // Outgoing link counts vary per node on a mesh (a corner has the
    // fewest); constant-power chip-to-chip links are charged per link.
    monitor_ = std::make_unique<net::PowerMonitor>(
        sim_.bus(), netCfg_.buildModels(), network_->linksPerNode());

    // Invariant audits (flit conservation, credit accounting, energy
    // sanity) run every auditCycles cycles when checks are enabled at
    // runtime; paranoid mode audits 16x as often.
    auditor_ = std::make_unique<net::NetworkAuditor>(*network_,
                                                    monitor_.get());
    if (core::checkLevel() != core::CheckLevel::Off) {
        auditor_->registerWith(sim_);
        sim::Cycle interval = simCfg_.auditCycles;
        if (core::checkLevel() == core::CheckLevel::Paranoid &&
            interval > 16)
            interval /= 16;
        sim_.setAuditInterval(interval);
    }

    // Telemetry (off by default: nothing is constructed or registered,
    // keeping the disabled path bit-identical to a telemetry-free
    // build).
    const telemetry::TelemetryConfig& tele = simCfg_.telemetry;
    if (tele.traceEnabled) {
        tracer_ = std::make_unique<telemetry::FlitTracer>(
            sim_.bus(), tele.traceCapacity);
        if (faults_)
            faults_->setTracer(tracer_.get());
    }
    if (tele.sampleInterval > 0) {
        metrics_ = std::make_unique<telemetry::MetricsRegistry>();
        net::registerNetworkMetrics(*metrics_, *network_, *monitor_,
                                    sim_.bus(), faults_.get(),
                                    health_.get(), detector_.get());
        sampler_ = std::make_unique<net::WindowedSampler>(
            *metrics_, tele.sampleInterval);
        sampler_->registerWith(sim_);
    }

    // Cooperative cancellation: with no token configured (the
    // default) each cycle pays only the loop's null-token test.
    sim_.setCancel(simCfg_.cancel);

    // Run-level observability hooks (off by default; both only
    // observe, so results are bit-identical either way).
    if (simCfg_.progressCycles != nullptr) {
        std::atomic<std::uint64_t>* counter = simCfg_.progressCycles;
        sim_.addPeriodic("progress.cycles", kProgressCycleInterval,
                         [counter](sim::Cycle now) {
                             counter->store(
                                 now, std::memory_order_relaxed);
                         });
    }
    if (simCfg_.profilePhases) {
        profiler_ = std::make_unique<core::PhaseProfiler>();
        sim_.setProfiler(profiler_.get());
    }
}

Simulation::~Simulation() = default;

void
Simulation::step(sim::Cycle cycles)
{
    sim_.run(cycles);
}

Report
Simulation::run()
{
    Report r;
    try {
        // Fault-drill hook: deliberately fail the point whose rate
        // matches debugPoisonRate (sweep failure-isolation tests).
        if (simCfg_.debugPoisonRate >= 0.0 &&
            std::abs(trafficCfg_.injectionRate -
                     simCfg_.debugPoisonRate) < 1e-12) {
            throw core::CheckFailure(
                "deliberately poisoned sweep point "
                "(SimConfig::debugPoisonRate)");
        }
        // Crash drill: deliberately SIGSEGV the point whose rate
        // matches debugSegvRate, so --isolate's structured
        // worker-crash capture can be tested end to end.
        if (simCfg_.debugSegvRate >= 0.0 &&
            std::abs(trafficCfg_.injectionRate -
                     simCfg_.debugSegvRate) < 1e-12) {
            std::raise(SIGSEGV);
        }
        runProtocol(r);
    } catch (const core::CheckFailure& e) {
        // An invariant fired mid-run (periodic audit, final audit, or
        // an ORION_CHECK in a module). Degrade gracefully: report the
        // failure as a structured stop reason and leave this object
        // intact so callers can take a forensic snapshot.
        r.stopReason = StopReason::CheckFailure;
        r.completed = false;
        r.deadlockSuspected = false;
        r.checkFailureDiagnostic = e.what();
        r.totalCycles = sim_.now();
        fillFaultStats(r);
    }
    // Close the sampler's final partial window whatever the outcome,
    // so a failed run still exports the time series it collected.
    if (sampler_)
        sampler_->finalize(sim_.now());
    return r;
}

std::string
Simulation::metricsCsv() const
{
    if (!sampler_)
        return {};
    std::ostringstream out;
    sampler_->writeCsv(out);
    return out.str();
}

std::string
Simulation::traceJson(const std::string& label) const
{
    if (!tracer_)
        return {};
    std::ostringstream out;
    tracer_->writeJson(out, label);
    return out.str();
}

void
Simulation::fillFaultStats(Report& r) const
{
    if (!faults_)
        return;
    r.flitsCorrupted = faults_->flitsCorrupted();
    r.flitsOutageDropped = faults_->flitsOutageDropped();
    r.flitsDiscarded = faults_->flitsDiscarded();
    r.packetsRetransmitted = faults_->packetsRetransmitted();
    r.packetsLost = faults_->packetsLost();
    r.faultLogHash = faults_->faultLogHash();
    r.packetsUnreachable = network_->totalUnreachable();
    if (health_)
        r.reroutes = health_->reroutes();
    if (detector_) {
        r.deadlocksDetected = detector_->detections();
        r.deadlocksRecovered = detector_->recoveries();
    }
}

void
Simulation::runProtocol(Report& r)
{
    // Run-phase wall-time marks (opt-in; one clock read per protocol
    // phase, nothing per cycle — the cycle-level attribution happens
    // inside Simulator::step on the profiler's sampling stride).
    const bool prof = profiler_ != nullptr;
    double mark = prof ? profileSeconds() : 0.0;
    const auto run_phase_done = [&](core::PhaseProfiler::Phase phase) {
        if (!prof)
            return;
        const double now = profileSeconds();
        profiler_->addRunSeconds(phase, now - mark);
        mark = now;
    };

    // Phase 1: warm-up (traffic flows, nothing is measured).
    sim_.run(simCfg_.warmupCycles);
    run_phase_done(core::PhaseProfiler::Phase::Warmup);

    // Phase 2: open the sample window and measure energy from here on.
    monitor_->reset();
    // The reset legitimately rewinds the energy counters; forget the
    // auditor's monotonicity baseline so it isn't a false violation.
    auditor_->resetEnergyBaseline();
    network_->resetFlitCounts();
    auto& shared = network_->shared();
    shared.sampling = true;
    shared.sampleRemaining = simCfg_.samplePackets;
    const sim::Cycle measure_start = sim_.now();
    // The monitor reset above rewound the energy counters the sampler
    // treats as monotone; re-read baselines and drop warm-up windows
    // so the exported series covers exactly the measurement window.
    if (sampler_)
        sampler_->rebaseline(measure_start);

    // Phase 3: run until every sample packet has been received, with a
    // progress watchdog (no flit motion while packets are in flight =>
    // deadlock / pathological saturation).
    bool completed = false;
    bool deadlocked = false;
    bool unrecovered = false;
    bool cancelled = false;
    sim::Cycle elapsed = 0;
    std::uint64_t last_flits = 0;
    std::uint64_t last_reads = 0;
    // Per-router stall map at watchdog granularity: cycles a router
    // has held resident flits without forwarding any (forensics).
    const unsigned n_routers = network_->topology().numNodes();
    routerFrozenCycles_.assign(n_routers, 0);
    std::vector<std::uint64_t> last_forwarded(n_routers, 0);
    for (unsigned i = 0; i < n_routers; ++i) {
        last_forwarded[i] =
            network_->router(static_cast<int>(i)).flitsForwarded();
    }
    const auto track_frozen = [&](sim::Cycle chunk) {
        for (unsigned i = 0; i < n_routers; ++i) {
            const auto& rt = network_->router(static_cast<int>(i));
            const std::uint64_t fwd = rt.flitsForwarded();
            if (fwd == last_forwarded[i] && rt.residentFlits() > 0)
                routerFrozenCycles_[i] += chunk;
            else
                routerFrozenCycles_[i] = 0;
            last_forwarded[i] = fwd;
        }
    };

    const auto done = [&] {
        return shared.sampleRemaining == 0 &&
               shared.sampleEjected + shared.sampleLost >=
                   shared.sampleInjected &&
               shared.sampleInjected >= simCfg_.samplePackets;
    };

    while (elapsed < simCfg_.maxCycles) {
        // Cooperative-cancellation check at chunk granularity (the
        // simulator loop itself also bails mid-chunk): a deadline or
        // interrupt ends the run with a structured stop reason.
        if (sim_.cancelled()) {
            cancelled = true;
            break;
        }
        const sim::Cycle chunk =
            std::min<sim::Cycle>(simCfg_.watchdogCycles,
                                 simCfg_.maxCycles - elapsed);
        if (sim_.runUntil(done, chunk)) {
            completed = true;
            break;
        }
        if (sim_.cancelled()) {
            cancelled = true;
            break;
        }
        elapsed += chunk;
        track_frozen(chunk);
        if (detector_ && detector_->unrecoverable()) {
            unrecovered = true;
            break;
        }

        const std::uint64_t flits = network_->totalFlitsEjected();
        const std::uint64_t reads =
            monitor_->eventCount(sim::EventType::BufferRead) +
            monitor_->eventCount(sim::EventType::CentralBufferRead);
        if (flits == last_flits && reads == last_reads &&
            network_->inFlight() > 0) {
            deadlocked = true;
            break;
        }
        last_flits = flits;
        last_reads = reads;
    }

    run_phase_done(core::PhaseProfiler::Phase::Measure);

    // Final audit at drain: every invariant must hold at the very
    // cycle boundary the report is assembled from. Skipped when
    // cancelled — the report is an explicitly partial snapshot and
    // the contract is to get out quickly.
    if (!cancelled && sim_.auditCount() > 0)
        sim_.runAudits();

    // Phase 4: assemble the report.
    const sim::Cycle measured = sim_.now() - measure_start;
    r.totalCycles = sim_.now();
    r.measuredCycles = measured;
    r.completed = completed;
    r.deadlockSuspected = deadlocked || unrecovered;
    r.stopReason = completed      ? StopReason::Completed
                   : cancelled   ? (simCfg_.cancel->cause() ==
                                            core::CancelCause::Deadline
                                        ? StopReason::Deadline
                                        : StopReason::Interrupted)
                   : unrecovered ? StopReason::DeadlockUnrecovered
                   : deadlocked  ? StopReason::WatchdogStall
                                 : StopReason::MaxCycles;
    r.moduleCount = sim_.moduleCount();
    fillFaultStats(r);

    r.avgLatencyCycles = shared.sampleLatency.mean();
    r.p50LatencyCycles = shared.sampleLatencyHist.quantile(0.50);
    r.p95LatencyCycles = shared.sampleLatencyHist.quantile(0.95);
    r.p99LatencyCycles = shared.sampleLatencyHist.quantile(0.99);
    r.maxLatencyCycles = shared.sampleLatency.max();
    r.sampleInjected = shared.sampleInjected;
    r.sampleEjected = shared.sampleEjected;
    r.offeredLoad = trafficCfg_.injectionRate;

    const unsigned n = network_->topology().numNodes();
    const double cycles = measured > 0 ? static_cast<double>(measured)
                                       : 1.0;
    r.acceptedFlitsPerNodePerCycle =
        static_cast<double>(network_->totalFlitsEjected()) / cycles / n;

    r.networkPowerWatts = monitor_->networkPower(cycles);
    r.dynamicEnergyJoules = monitor_->totalEnergy();
    const double flits_delivered =
        static_cast<double>(network_->totalFlitsEjected());
    r.energyPerFlitJoules =
        flits_delivered > 0.0 ? r.dynamicEnergyJoules / flits_delivered
                              : 0.0;
    r.breakdownWatts.buffer =
        monitor_->classPower(net::ComponentClass::Buffer, cycles);
    r.breakdownWatts.crossbar =
        monitor_->classPower(net::ComponentClass::Crossbar, cycles);
    r.breakdownWatts.arbiter =
        monitor_->classPower(net::ComponentClass::Arbiter, cycles);
    r.breakdownWatts.link =
        monitor_->classPower(net::ComponentClass::Link, cycles);
    r.breakdownWatts.centralBuffer =
        monitor_->classPower(net::ComponentClass::CentralBuffer, cycles);

    r.nodePowerWatts.resize(n);
    for (unsigned i = 0; i < n; ++i) {
        r.nodePowerWatts[i] =
            monitor_->nodePower(static_cast<int>(i), cycles);
    }

    for (unsigned t = 0; t < sim::kNumEventTypes; ++t) {
        r.eventCounts[t] =
            monitor_->eventCount(static_cast<sim::EventType>(t));
    }
    // Packet events are not routed through the monitor; take them from
    // the bus (counted since construction — injection/ejection events
    // during warm-up included by design).
    r.eventCounts[static_cast<unsigned>(sim::EventType::PacketInjected)] =
        sim_.bus().emittedCount(sim::EventType::PacketInjected);
    r.eventCounts[static_cast<unsigned>(sim::EventType::PacketEjected)] =
        sim_.bus().emittedCount(sim::EventType::PacketEjected);

    // Final audits + report assembly ("drain" in the phase profile).
    run_phase_done(core::PhaseProfiler::Phase::Drain);

    // Opt-in Chrome-trace spans: with both the tracer and the profiler
    // enabled, summarize each phase as an instant event at the final
    // cycle, microseconds carried in the packet-id field (the ring
    // record has no payload slot; docs/OBSERVABILITY.md documents the
    // encoding).
    if (tracer_ && profiler_) {
        for (unsigned i = 0; i < core::PhaseProfiler::kNumPhases; ++i) {
            const auto phase =
                static_cast<core::PhaseProfiler::Phase>(i);
            const double secs = profiler_->seconds(phase);
            if (secs <= 0.0)
                continue;
            tracer_->addInstant(core::PhaseProfiler::phaseName(phase),
                                -1, -1, sim_.now(),
                                static_cast<std::uint64_t>(secs * 1e6));
        }
    }
}

} // namespace orion
