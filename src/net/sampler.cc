#include "net/sampler.hh"

#include <cassert>
#include <cstdio>
#include <ostream>
#include <string>

#include "net/deadlock.hh"
#include "net/fault.hh"
#include "net/health.hh"
#include "net/network.hh"
#include "net/power_monitor.hh"

namespace orion::net {

WindowedSampler::WindowedSampler(
    const telemetry::MetricsRegistry& registry, sim::Cycle interval)
    : registry_(registry), interval_(interval)
{
    assert(interval_ > 0 && "sampler needs a nonzero interval");
    baseline_ = readAll();
}

void
WindowedSampler::registerWith(sim::Simulator& simulator)
{
    simulator.addPeriodic("telemetry.sampler", interval_,
                          [this](sim::Cycle now) { sample(now); });
}

std::vector<double>
WindowedSampler::readAll() const
{
    std::vector<double> values(registry_.size());
    for (std::size_t i = 0; i < registry_.size(); ++i)
        values[i] = registry_.read(i);
    return values;
}

void
WindowedSampler::rebaseline(sim::Cycle now)
{
    windows_.clear();
    windowStart_ = now;
    baseline_ = readAll();
}

void
WindowedSampler::sample(sim::Cycle now)
{
    if (now <= windowStart_)
        return;
    Window w{windowStart_, now, readAll()};
    for (std::size_t i = 0; i < registry_.size(); ++i) {
        if (registry_.kind(i) == telemetry::MetricKind::Counter) {
            const double current = w.values[i];
            w.values[i] = current - baseline_[i];
            baseline_[i] = current;
        }
    }
    windowStart_ = now;
    windows_.push_back(std::move(w));
}

void
WindowedSampler::finalize(sim::Cycle now)
{
    sample(now);
}

void
WindowedSampler::writeCsv(std::ostream& out) const
{
    out << "window,cycle_start,cycle_end,metric,kind,value\n";
    char buf[32];
    for (std::size_t w = 0; w < windows_.size(); ++w) {
        const Window& win = windows_[w];
        for (std::size_t i = 0; i < registry_.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.9g", win.values[i]);
            out << w << ',' << win.start << ',' << win.end << ','
                << registry_.name(i) << ','
                << telemetry::metricKindName(registry_.kind(i)) << ','
                << buf << '\n';
        }
    }
}

void
registerNetworkMetrics(telemetry::MetricsRegistry& reg, Network& net,
                       const PowerMonitor& monitor,
                       const sim::EventBus& bus,
                       const FaultInjector* faults,
                       const HealthMonitor* health,
                       const DeadlockDetector* detector)
{
    const int nodes =
        static_cast<int>(net.topology().numNodes());

    // Network-wide aggregates.
    reg.addCounter("net.packets_injected",
                   [&net] { return double(net.totalInjected()); });
    reg.addCounter("net.packets_ejected",
                   [&net] { return double(net.totalEjected()); });
    reg.addCounter("net.packets_lost",
                   [&net] { return double(net.totalLost()); });
    reg.addGauge("net.in_flight",
                 [&net] { return double(net.inFlight()); });

    // Sample-latency accumulator (sum + count give per-window means).
    const SharedState& shared = net.shared();
    reg.addCounter("latency.sum_cycles", [&shared] {
        return shared.sampleLatency.sum();
    });
    reg.addCounter("latency.count", [&shared] {
        return double(shared.sampleLatency.count());
    });

    // Per-endpoint injection/ejection and source queueing.
    for (int n = 0; n < nodes; ++n) {
        const std::string p = "node." + std::to_string(n) + ".";
        const Node& ep = net.endpoint(n);
        reg.addCounter(p + "packets_injected", [&ep] {
            return double(ep.packetsInjected());
        });
        reg.addCounter(p + "packets_ejected", [&ep] {
            return double(ep.packetsEjected());
        });
        reg.addCounter(p + "flits_injected", [&ep] {
            return double(ep.flitsInjectedTotal());
        });
        reg.addCounter(p + "flits_ejected", [&ep] {
            return double(ep.flitsEjectedTotal());
        });
        reg.addGauge(p + "source_queue", [&ep] {
            return double(ep.sourceQueueLength());
        });
    }

    // Per-router occupancy, throughput ledgers, contention, credits.
    for (int n = 0; n < nodes; ++n) {
        const std::string p = "router." + std::to_string(n) + ".";
        const router::Router& r = net.router(n);
        reg.addGauge(p + "occupancy",
                     [&r] { return double(r.residentFlits()); });
        reg.addCounter(p + "flits_arrived",
                       [&r] { return double(r.flitsArrived()); });
        reg.addCounter(p + "flits_forwarded", [&r] {
            return double(r.flitsForwarded());
        });
        reg.addCounter(p + "sa_stalls",
                       [&r] { return double(r.saStalls()); });
        reg.addGauge(p + "credits_in_flight", [&r] {
            return double(r.creditsInFlight());
        });
    }

    // The spatial power map: per-(node, component-class) energy.
    for (int n = 0; n < nodes; ++n) {
        for (unsigned c = 0; c < kNumComponentClasses; ++c) {
            const auto cls = static_cast<ComponentClass>(c);
            reg.addCounter("power." + std::to_string(n) + "." +
                               componentClassName(cls) + ".energy_j",
                           [&monitor, n, cls] {
                               return monitor.energy(n, cls);
                           });
        }
    }

    // Measured switching activity, from the monitor's exact tallies:
    // for each power event type whose model takes a delta A, the
    // events, the (clamped) toggles summed over them, and the activity
    // factor toggles / (events x width), where the width is the
    // clamp limit (flit, crossbar or link wires, arbiter request
    // lines). Buffer writes also report the memory cells they flip.
    const sim::ActivityTally& tally = monitor.activity();
    const auto add_activity = [&reg, &tally](const std::string& name,
                                             sim::EventType type,
                                             bool b_side) {
        const sim::DeltaLimits& lim = tally.limits(type);
        const double width = b_side ? lim.b : lim.a;
        const auto toggles = [&tally, type, b_side] {
            const sim::ActivityCount c = tally.total(type);
            return double(b_side ? c.sumB : c.sumA);
        };
        reg.addCounter(name + "toggles", toggles);
        reg.addGauge(name + "alpha", [&tally, type, toggles, width] {
            const double events = double(tally.total(type).events);
            return events > 0.0 ? toggles() / (events * width) : 0.0;
        });
    };
    for (unsigned t = 0; t < sim::kNumPowerEventTypes; ++t) {
        const auto type = static_cast<sim::EventType>(t);
        if (tally.limits(type).a == 0)
            continue;
        const std::string p =
            std::string("activity.") + sim::eventTypeName(type) + ".";
        reg.addCounter(p + "events", [&tally, type] {
            return double(tally.total(type).events);
        });
        add_activity(p, type, false);
        if (type == sim::EventType::BufferWrite)
            add_activity(p + "cell_", type, true);
    }

    // Event-bus totals by type.
    for (unsigned t = 0; t < sim::kNumEventTypes; ++t) {
        const auto type = static_cast<sim::EventType>(t);
        reg.addCounter(std::string("events.") + sim::eventTypeName(type),
                       [&bus, type] {
                           return double(bus.emittedCount(type));
                       });
    }

    // Fault-injection activity, by kind.
    if (faults) {
        reg.addCounter("fault.events", [faults] {
            return double(faults->eventCount());
        });
        reg.addCounter("fault.flits_corrupted", [faults] {
            return double(faults->flitsCorrupted());
        });
        reg.addCounter("fault.flits_outage_dropped", [faults] {
            return double(faults->flitsOutageDropped());
        });
        reg.addCounter("fault.flits_discarded", [faults] {
            return double(faults->flitsDiscarded());
        });
        reg.addCounter("fault.packets_retransmitted", [faults] {
            return double(faults->packetsRetransmitted());
        });
        reg.addCounter("fault.packets_lost", [faults] {
            return double(faults->packetsLost());
        });
    }

    // Fault-tolerant rerouting activity.
    if (health) {
        reg.addCounter("fault.reroutes", [health] {
            return double(health->reroutes());
        });
        reg.addCounter("net.packets_unreachable", [&net] {
            return double(net.totalUnreachable());
        });
        reg.addGauge("net.links_down", [health] {
            return double(health->downLinks().size());
        });
    }

    // Runtime deadlock detection/recovery.
    if (detector) {
        reg.addCounter("net.deadlocks_detected", [detector] {
            return double(detector->detections());
        });
        reg.addCounter("net.deadlocks_recovered", [detector] {
            return double(detector->recoveries());
        });
    }
}

} // namespace orion::net
