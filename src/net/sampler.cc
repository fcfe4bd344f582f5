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
registerNetworkMetrics(telemetry::MetricsRegistry& reg, const Network& net,
                       const FaultInjector* faults,
                       const HealthMonitor* health,
                       const DeadlockDetector* detector)
{
    const auto counter = [&reg](const std::string& name, auto read) {
        reg.addCounter(name, [read] { return double(read()); });
    };
    const auto gauge = [&reg](const std::string& name, auto read) {
        reg.addGauge(name, [read] { return double(read()); });
    };

    // Network-wide aggregates.
    counter("net.packets_injected", [&net] { return net.totalInjected(); });
    counter("net.packets_ejected", [&net] { return net.totalEjected(); });
    counter("net.packets_lost", [&net] { return net.totalLost(); });
    counter("net.packets_unreachable",
            [&net] { return net.totalUnreachable(); });
    gauge("net.in_flight", [&net] { return net.inFlight(); });

    // Sample-latency accumulator (sum + count give per-window means)
    // and the measurement sample's progress.
    const SharedState& sh = net.shared();
    counter("latency.sum_cycles", [&sh] { return sh.sampleLatency.sum(); });
    counter("latency.count", [&sh] { return sh.sampleLatency.count(); });
    counter("sample.injected", [&sh] { return sh.sampleInjected; });
    counter("sample.ejected", [&sh] { return sh.sampleEjected; });
    counter("sample.lost", [&sh] { return sh.sampleLost; });
    gauge("sample.remaining", [&sh] { return sh.sampleRemaining; });

    // Per-endpoint injection/ejection, losses and source queueing.
    const int nodes = static_cast<int>(net.topology().numNodes());
    for (int n = 0; n < nodes; ++n) {
        const std::string p = "node." + std::to_string(n) + ".";
        const Node& ep = net.endpoint(n);
        counter(p + "packets_injected",
                [&ep] { return ep.packetsInjected(); });
        counter(p + "packets_ejected", [&ep] { return ep.packetsEjected(); });
        counter(p + "packets_lost", [&ep] { return ep.packetsLost(); });
        counter(p + "packets_unreachable",
                [&ep] { return ep.packetsUnreachable(); });
        counter(p + "flits_injected",
                [&ep] { return ep.flitsInjectedTotal(); });
        counter(p + "flits_ejected", [&ep] { return ep.flitsEjectedTotal(); });
        gauge(p + "source_queue", [&ep] { return ep.sourceQueueLength(); });
    }

    // Per-router occupancy, throughput ledgers, contention, credits.
    for (int n = 0; n < nodes; ++n) {
        const std::string p = "router." + std::to_string(n) + ".";
        const router::Router& r = net.router(n);
        gauge(p + "occupancy", [&r] { return r.residentFlits(); });
        counter(p + "flits_arrived", [&r] { return r.flitsArrived(); });
        counter(p + "flits_forwarded", [&r] { return r.flitsForwarded(); });
        counter(p + "flits_discarded", [&r] { return r.flitsDiscarded(); });
        counter(p + "sa_stalls", [&r] { return r.saStalls(); });
        gauge(p + "credits_in_flight", [&r] { return r.creditsInFlight(); });
    }

    // Fault-injection activity, by kind.
    if (const FaultInjector* f = faults) {
        counter("fault.events", [f] { return f->eventCount(); });
        counter("fault.flits_corrupted", [f] { return f->flitsCorrupted(); });
        counter("fault.flits_outage_dropped",
                [f] { return f->flitsOutageDropped(); });
        counter("fault.flits_discarded", [f] { return f->flitsDiscarded(); });
        counter("fault.packets_retransmitted",
                [f] { return f->packetsRetransmitted(); });
        counter("fault.packets_lost", [f] { return f->packetsLost(); });
    }

    // Fault-tolerant rerouting activity.
    if (const HealthMonitor* h = health) {
        counter("fault.reroutes", [h] { return h->reroutes(); });
        gauge("net.links_down", [h] { return h->downLinks().size(); });
        gauge("net.health_epoch", [h] { return h->epoch(); });
    }

    // Runtime deadlock detection/recovery.
    if (const DeadlockDetector* d = detector) {
        counter("net.deadlocks_detected", [d] { return d->detections(); });
        counter("net.deadlocks_recovered", [d] { return d->recoveries(); });
        gauge("net.deadlock_unrecoverable",
              [d] { return d->unrecoverable(); });
    }
}

void
registerPowerMetrics(telemetry::MetricsRegistry& reg, unsigned nodes,
                     const PowerMonitor& monitor,
                     const sim::EventBus& bus)
{
    // The spatial power map: per-(node, component-class) energy.
    for (int n = 0; n < static_cast<int>(nodes); ++n) {
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
}

} // namespace orion::net
