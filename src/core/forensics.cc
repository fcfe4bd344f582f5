#include "core/forensics.hh"

#include "base/json.hh"

namespace orion {

namespace {

const char*
faultKindName(net::FaultKind kind)
{
    switch (kind) {
      case net::FaultKind::BitError:   return "bit-error";
      case net::FaultKind::LinkOutage: return "link-outage";
    }
    return "unknown";
}

void
writeWaitVc(report::JsonWriter& w, const net::DeadlockDetector::WaitVc& v)
{
    w.beginObject().field("router", v.node).field("port", v.port);
    w.field("vc", v.vc).field("phase", v.phase);
    w.field("out_port", v.outPort).field("out_vc", v.outVc);
    w.field("packet", v.packetId).field("head_front", v.frontHead);
    w.endObject();
}

std::string
vcName(const net::DeadlockDetector::WaitVc& v)
{
    return "router" + std::to_string(v.node) + ":in" +
           std::to_string(v.port) + ":vc" + std::to_string(v.vc);
}

} // namespace

std::string
forensicSnapshot(Simulation& sim, const std::string& reason)
{
    const net::Network& net = sim.network();
    const net::HealthMonitor* health = sim.healthMonitor();
    const net::DeadlockDetector* detector = sim.deadlockDetector();
    const net::FaultInjector* faults = net.faultInjector();

    // Every scalar comes from the network's one metric list, plus the
    // per-router stall map: frozen_cycles is how long each router has
    // held resident flits without forwarding any (watchdog grain; 0
    // before the drain phase runs).
    telemetry::MetricsRegistry metrics;
    net::registerNetworkMetrics(metrics, net, faults, health, detector);
    const std::vector<sim::Cycle>& frozen = sim.routerFrozenCycles();
    const unsigned nodes = net.topology().numNodes();
    for (unsigned n = 0; n < nodes; ++n) {
        metrics.addGauge("router." + std::to_string(n) + ".frozen_cycles",
                         [&frozen, n] {
                             return n < frozen.size() ? double(frozen[n])
                                                      : 0.0;
                         });
    }

    report::JsonWriter w;
    w.beginObject().field("reason", reason);
    w.field("cycle", sim.simulator().now()).key("metrics");
    metrics.writeJson(w);

    if (health != nullptr) {
        w.key("down_links").beginArray();
        for (const unsigned link : health->downLinks())
            w.value(link);
        w.endArray();
    }

    if (detector != nullptr && !detector->lastWaitCycle().empty()) {
        w.key("wait_graph").beginObject();
        w.field("detected_at", detector->lastDetectionAt());
        w.key("wait_cycle").beginArray();
        for (const auto& v : detector->lastWaitCycle())
            writeWaitVc(w, v);
        w.endArray().key("edges").beginArray();
        for (const auto& e : detector->lastWaitEdges()) {
            w.beginObject().field("from", vcName(e.from));
            w.field("to", vcName(e.to));
            w.field("kind", e.from.phase == 2 ? "credit" : "vc-alloc");
            w.endObject();
        }
        w.endArray().endObject();
    }

    if (faults != nullptr) {
        // The exact 64-bit fingerprint (a double would round it) and
        // the last kTail events.
        constexpr std::size_t kTail = 64;
        const auto& log = faults->log();
        const std::size_t first =
            log.size() > kTail ? log.size() - kTail : 0;
        w.key("fault_log").beginObject();
        w.field("hash", faults->faultLogHash()).key("tail").beginArray();
        for (std::size_t i = first; i < log.size(); ++i) {
            const net::FaultEvent& ev = log[i];
            w.beginObject().field("cycle", ev.cycle);
            w.field("kind", faultKindName(ev.kind)).field("link", ev.link);
            w.field("packet", ev.packetId).endObject();
        }
        w.endArray().endObject();
    }

    return w.endObject().takeLine();
}

} // namespace orion
