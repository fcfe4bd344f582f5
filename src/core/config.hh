/**
 * @file
 * Top-level Orion configuration: network/traffic/simulation parameter
 * bundles, plus named presets for every router configuration the
 * paper's case studies evaluate (Sections 4.2 and 4.4).
 */

#ifndef ORION_CORE_CONFIG_HH
#define ORION_CORE_CONFIG_HH

#include <atomic>
#include <cstdint>

#include "net/deadlock.hh"
#include "net/fault.hh"
#include "net/network.hh"
#include "net/power_monitor.hh"
#include "net/traffic.hh"
#include "power/arbiter_model.hh"
#include "power/crossbar_model.hh"
#include "sim/telemetry.hh"
#include "tech/tech_node.hh"

namespace orion::core {
class CancelToken;
} // namespace orion::core

namespace orion {

/** Link regime (paper Sections 4.2 vs 4.4). */
enum class LinkType
{
    /** Capacitive on-chip wires: power tracks switching activity. */
    OnChip,
    /** Differential chip-to-chip links: constant power per link. */
    ChipToChip,
};

/**
 * Physical organization of an input port's buffering, which sets the
 * SRAM array geometry the buffer power model sees.
 *
 * PerPort: all VCs share one array (B = vcs x depth) — the natural
 * layout for a few shallow VCs (the paper's VC16/VC64/VC128), and what
 * makes WH64's deep buffer costlier per access than VC16's.
 *
 * PerVc: each VC is its own array (B = depth) — the only sane layout
 * for many deep VCs (the XB router's 16 x 268 flits), and what makes
 * XB's per-access energy far smaller than the central buffer's
 * 2560-row banks (Figure 7's power ordering).
 */
enum class BufferOrganization
{
    PerPort,
    PerVc,
};

/** Full network configuration (structure + power-model knobs). */
struct NetworkConfig
{
    /** Structural parameters (topology, router, buffers). */
    net::NetworkParams net;
    /** Technology node (supplies Vdd, f_clk, capacitances). */
    tech::TechNode tech = tech::TechNode::onChip100nm();
    LinkType linkType = LinkType::OnChip;
    /** Physical link length for on-chip links (3 mm on the paper's
     * 12 mm x 12 mm 16-node chip). */
    double linkLengthUm = 3000.0;
    /** Constant power per chip-to-chip link (3 W per the IBM 12X). */
    double c2cLinkPowerWatts = 3.0;
    power::CrossbarKind crossbarKind = power::CrossbarKind::Matrix;
    BufferOrganization bufferOrg = BufferOrganization::PerPort;

    /**
     * Instantiate the component power models this configuration
     * implies (Table 2-4 models parameterized by the router design).
     */
    net::PowerModelSet buildModels() const;

    /**
     * Check structural consistency (port/VC/buffer constraints, the
     * deadlock disciplines' requirements, central-buffer geometry).
     * Throws std::invalid_argument with a descriptive message.
     * Simulation's constructor calls this; call it directly to
     * validate user-supplied configurations early.
     */
    void validate() const;

    /// @name Paper presets
    /// @{
    /** Section 4.2: wormhole, 64-flit buffer/port, on-chip. */
    static NetworkConfig wh64();
    /** Section 4.2: 2 VCs x 8 flits, on-chip. */
    static NetworkConfig vc16();
    /** Section 4.2: 8 VCs x 8 flits, on-chip. */
    static NetworkConfig vc64();
    /** Section 4.2: 8 VCs x 16 flits, on-chip. */
    static NetworkConfig vc128();
    /** Section 4.4: input-buffered crossbar router, 16 VCs x 268
     * flits, 32-bit flits, chip-to-chip. */
    static NetworkConfig xb();
    /** Section 4.4: central-buffered router, 4 banks x 2560 rows,
     * 64-flit input FIFOs, chip-to-chip. */
    static NetworkConfig cb();
    /// @}
};

/** Workload configuration (re-exported from the net layer). */
using TrafficConfig = net::TrafficParams;

/** Fault-injection configuration (re-exported from the net layer). */
using FaultConfig = net::FaultConfig;

/**
 * Check a workload against a network configuration (rates in range,
 * referenced nodes exist, trace supplied when required). Throws
 * std::invalid_argument on violation.
 */
void validateTraffic(const NetworkConfig& network,
                     const TrafficConfig& traffic);

/** Simulation control (paper Section 4.1 protocol). */
struct SimConfig
{
    /** Warm-up cycles before measurement (paper: 1000). */
    sim::Cycle warmupCycles = 1000;
    /** Packets in the measurement sample (paper: 10,000). */
    std::uint64_t samplePackets = 10000;
    /** Hard cycle cap after warm-up. */
    sim::Cycle maxCycles = 1000000;
    /** Progress-watchdog window: if no flit moves for this many
     * cycles while packets are in flight, the run is declared
     * deadlocked/saturated and stopped. */
    sim::Cycle watchdogCycles = 5000;
    /** RNG seed (runs are fully deterministic given a seed). */
    std::uint64_t seed = 1;
    /**
     * Cycles between network-wide invariant audits (flit conservation,
     * credit accounting, energy sanity — see net/audit.hh). Audits run
     * only when the runtime check level is at least Cheap; at Paranoid
     * the interval is divided by 16. 0 disables periodic audits (a
     * final audit still runs at the end of Simulation::run()).
     */
    sim::Cycle auditCycles = 1024;
    /**
     * Fault injection (defaults = no faults; the simulation then
     * takes the exact fault-free fast path, bit-identical to builds
     * without this subsystem).
     */
    FaultConfig fault;
    /**
     * Telemetry (defaults = all disabled; the disabled configuration
     * registers nothing with the simulator and produces bit-identical
     * outputs to a build without the subsystem).
     */
    telemetry::TelemetryConfig telemetry;
    /**
     * Fault-tolerant rerouting (off by default): sources watch the
     * surviving-topology view and rebuild routes around scheduled
     * link outages instead of retransmitting into a dead link;
     * partitioned destinations fail fast into the `unreachable` loss
     * category. See net/health.hh and docs/ROBUSTNESS.md.
     */
    bool rerouteOnOutage = false;
    /**
     * Runtime deadlock detection and recovery (off by default). See
     * net/deadlock.hh and docs/ROBUSTNESS.md.
     */
    net::DeadlockDetectConfig deadlockDetect;
    /**
     * Fault-drill hook in the spirit of debugCorruptCredit /
     * debugDropFlit: a run whose injection rate equals this value
     * throws core::CheckFailure right after construction, so sweep
     * failure isolation can be exercised deterministically. Negative
     * disables.
     */
    double debugPoisonRate = -1.0;
    /**
     * With debugPoisonRate set: make the poison transient, i.e. only
     * the first attempt of a sweep point fails, so the point's
     * bounded retry on a rederived seed succeeds.
     */
    bool debugPoisonTransient = false;
    /**
     * Crash drill for the isolated worker mode (--isolate): a run
     * whose injection rate equals this value raises SIGSEGV right
     * after construction, so the sweep's structured worker-crash
     * capture can be exercised deterministically. Negative disables.
     */
    double debugSegvRate = -1.0;
    /**
     * Cooperative-cancellation token (not owned; may be null). When
     * set, Simulation::run checks it at cycle granularity and returns
     * a report with StopReason::Deadline or StopReason::Interrupted
     * instead of running to the cycle cap. Arm a deadline on the
     * token itself (CancelToken::armDeadline) for --point-timeout
     * semantics. See base/cancel.hh and docs/ROBUSTNESS.md.
     */
    core::CancelToken* cancel = nullptr;
    /**
     * Live progress counter (not owned; may be null). When set, the
     * simulation registers a periodic hook that publishes the current
     * cycle into it every few thousand cycles — one relaxed atomic
     * store, read by the live run manifest (core/progress.hh).
     * Observability only: excluded from sweepFingerprint like
     * telemetry and cancellation, because it never changes report
     * bytes.
     */
    std::atomic<std::uint64_t>* progressCycles = nullptr;
    /**
     * Attribute kernel wall time to simulator stages via a
     * core::PhaseProfiler owned by the Simulation (--profile-phases;
     * see base/profile.hh). Observability only: excluded from
     * sweepFingerprint; results are bit-identical either way.
     */
    bool profilePhases = false;

    /**
     * Validate the measurement protocol: a zero sample, zero cycle
     * cap, zero watchdog window, or a NaN in the debug-drill rates
     * would wedge or silently no-op a run. @throw
     * std::invalid_argument with a structured "orion config: ..."
     * message. Cross-layer checks (topology, traffic) live in
     * NetworkConfig::validate() / validateTraffic(); call
     * validateConfig() for the whole bundle.
     */
    void validate() const;
};

/**
 * The single validation entry point for one runnable configuration:
 * network.validate() + validateTraffic() + sim.validate() +
 * sim.fault.validate(). The CLI parser calls this before
 * construction so a malformed configuration is a structured
 * rejection (std::invalid_argument), never an assert deep inside the
 * simulator.
 */
void validateConfig(const NetworkConfig& network,
                    const TrafficConfig& traffic, const SimConfig& sim);

} // namespace orion

#endif // ORION_CORE_CONFIG_HH
