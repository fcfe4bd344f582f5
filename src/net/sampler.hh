/**
 * @file
 * Windowed time-series sampling over a telemetry::MetricsRegistry.
 *
 * The sampler registers a periodic hook with the Simulator (alongside
 * the audit hook) and snapshots every registered metric at each
 * --sample-interval boundary: counters as per-window deltas, gauges as
 * instantaneous levels. The result is a time series — including the
 * per-node-per-window energy matrix that tools/power_heatmap.py turns
 * into a spatial power map — exported as long-format CSV
 * (window,cycle_start,cycle_end,metric,kind,value).
 *
 * registerNetworkMetrics() and registerPowerMetrics() are the glue that
 * publishes the network layers' counters (routers, endpoints, fault
 * injector; power monitor, event bus) into a registry; see
 * docs/OBSERVABILITY.md for the full metric namespace.
 */

#ifndef ORION_NET_SAMPLER_HH
#define ORION_NET_SAMPLER_HH

#include <iosfwd>
#include <vector>

#include "sim/telemetry.hh"
#include "sim/simulator.hh"

namespace orion::net {

class Network;
class PowerMonitor;
class FaultInjector;
class HealthMonitor;
class DeadlockDetector;

/** Snapshots a MetricsRegistry every @p interval cycles. */
class WindowedSampler
{
  public:
    /** One closed sampling window: values[i] corresponds to registry
     * metric i (counter: delta over the window; gauge: value at the
     * window's end). */
    struct Window
    {
        sim::Cycle start;
        sim::Cycle end;
        std::vector<double> values;
    };

    /** @p registry must outlive the sampler; @p interval > 0. */
    WindowedSampler(const telemetry::MetricsRegistry& registry,
                    sim::Cycle interval);

    WindowedSampler(const WindowedSampler&) = delete;
    WindowedSampler& operator=(const WindowedSampler&) = delete;

    sim::Cycle interval() const { return interval_; }

    /** Register the sampling hook with @p simulator. */
    void registerWith(sim::Simulator& simulator);

    /**
     * Drop all recorded windows and re-read counter baselines at
     * @p now. Called when the measurement window opens (after the
     * protocol's PowerMonitor::reset()), so warm-up activity is
     * excluded and counter deltas stay nonnegative across the reset.
     */
    void rebaseline(sim::Cycle now);

    /** Close the current window at @p now (the periodic hook). */
    void sample(sim::Cycle now);

    /**
     * Close a final partial window at @p now (end of drain).
     * Idempotent; a zero-length window is not recorded.
     */
    void finalize(sim::Cycle now);

    const std::vector<Window>& windows() const { return windows_; }

    /**
     * Export every window as long-format CSV:
     * window,cycle_start,cycle_end,metric,kind,value.
     */
    void writeCsv(std::ostream& out) const;

  private:
    std::vector<double> readAll() const;

    const telemetry::MetricsRegistry& registry_;
    sim::Cycle interval_;
    sim::Cycle windowStart_ = 0;
    /** Counter values at the start of the open window. */
    std::vector<double> baseline_;
    std::vector<Window> windows_;
};

/**
 * Publish the network's state into @p registry, the one list of what
 * describes a network (the sampler and the forensic snapshot read
 * it): net.*, latency.*, sample.*, node.N.*, router.N.*, and fault.*,
 * rerouting and deadlock metrics for each non-null subsystem. All
 * arguments must outlive the registry's readers.
 */
void registerNetworkMetrics(telemetry::MetricsRegistry& registry,
                            const Network& net,
                            const FaultInjector* faults,
                            const HealthMonitor* health = nullptr,
                            const DeadlockDetector* detector = nullptr);

/**
 * Publish the power accounting of @p nodes nodes into @p registry:
 * the energy matrix power.N.CLASS.energy_j, measured switching
 * activity activity.* and the event-bus totals events.*.
 */
void registerPowerMetrics(telemetry::MetricsRegistry& registry,
                          unsigned nodes, const PowerMonitor& monitor,
                          const sim::EventBus& bus);

} // namespace orion::net

#endif // ORION_NET_SAMPLER_HH
