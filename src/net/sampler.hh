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
 * registerNetworkMetrics() is the glue that publishes the network
 * layers' counters (routers, endpoints, power monitor, event bus,
 * fault injector) into a registry; see docs/OBSERVABILITY.md for the
 * full metric namespace.
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
 * Publish the standard network metric namespace into @p registry:
 * net.* aggregates, latency.*, per-node node.N.* and router.N.*
 * counters/gauges, the per-(node, component-class) energy matrix
 * power.N.CLASS.energy_j, events.* bus totals, fault.* counters when
 * @p faults is non-null, rerouting counters (fault.reroutes,
 * net.packets_unreachable) when @p health is non-null, and
 * net.deadlocks_recovered when @p detector is non-null. All arguments
 * must outlive the registry's readers (they live in the owning
 * Simulation).
 */
void registerNetworkMetrics(telemetry::MetricsRegistry& registry,
                            Network& net, const PowerMonitor& monitor,
                            const sim::EventBus& bus,
                            const FaultInjector* faults,
                            const HealthMonitor* health = nullptr,
                            const DeadlockDetector* detector = nullptr);

} // namespace orion::net

#endif // ORION_NET_SAMPLER_HH
