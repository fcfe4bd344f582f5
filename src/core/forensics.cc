#include "core/forensics.hh"

#include <sstream>

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

} // namespace

std::string
forensicSnapshot(Simulation& sim, const std::string& reason)
{
    net::Network& net = sim.network();
    const unsigned nodes = net.topology().numNodes();

    std::ostringstream out;
    out << "{\n";
    out << "  \"reason\": \"" << report::jsonEscape(reason) << "\",\n";
    out << "  \"cycle\": " << sim.simulator().now() << ",\n";

    const net::SharedState& shared = net.shared();
    out << "  \"sample\": {\"injected\": " << shared.sampleInjected
        << ", \"ejected\": " << shared.sampleEjected
        << ", \"lost\": " << shared.sampleLost
        << ", \"remaining\": " << shared.sampleRemaining << "},\n";
    out << "  \"packets\": {\"injected\": " << net.totalInjected()
        << ", \"ejected\": " << net.totalEjected()
        << ", \"lost\": " << net.totalLost()
        << ", \"unreachable\": " << net.totalUnreachable()
        << ", \"in_flight\": " << net.inFlight() << "},\n";

    // Per-router stall map: frozen_cycles is how long each router has
    // held resident flits without forwarding any (watchdog grain;
    // empty before the drain phase runs).
    const std::vector<sim::Cycle>& frozen = sim.routerFrozenCycles();
    out << "  \"routers\": [\n";
    for (unsigned n = 0; n < nodes; ++n) {
        const router::Router& r = net.router(static_cast<int>(n));
        std::size_t credits = 0;
        for (unsigned p = 0; p < r.params().ports; ++p) {
            const router::CreditCounter* c = r.outputCreditCounter(p);
            if (c == nullptr || c->unlimited())
                continue;
            for (unsigned v = 0; v < c->vcs(); ++v)
                credits += c->available(v);
        }
        out << "    {\"node\": " << n << ", \"resident\": "
            << r.residentFlits() << ", \"arrived\": "
            << r.flitsArrived() << ", \"forwarded\": "
            << r.flitsForwarded() << ", \"discarded\": "
            << r.flitsDiscarded() << ", \"frozen_cycles\": "
            << (n < frozen.size() ? frozen[n] : 0)
            << ", \"output_credits\": "
            << credits << "}" << (n + 1 < nodes ? "," : "") << "\n";
    }
    out << "  ],\n";

    out << "  \"endpoints\": [\n";
    for (unsigned n = 0; n < nodes; ++n) {
        const net::Node& ep = net.endpoint(static_cast<int>(n));
        out << "    {\"node\": " << n << ", \"source_queue\": "
            << ep.sourceQueueLength() << ", \"injected\": "
            << ep.packetsInjected() << ", \"ejected\": "
            << ep.packetsEjected() << ", \"lost\": "
            << ep.packetsLost() << ", \"unreachable\": "
            << ep.packetsUnreachable() << "}"
            << (n + 1 < nodes ? "," : "") << "\n";
    }
    out << "  ]";

    if (const net::HealthMonitor* health = sim.healthMonitor()) {
        out << ",\n  \"health\": {\"epoch\": " << health->epoch()
            << ", \"reroutes\": " << health->reroutes()
            << ", \"down_links\": [";
        const auto down = health->downLinks();
        for (std::size_t i = 0; i < down.size(); ++i)
            out << (i ? ", " : "") << down[i];
        out << "]}";
    }

    if (const net::DeadlockDetector* det = sim.deadlockDetector()) {
        out << ",\n  \"deadlock\": {\"detections\": "
            << det->detections() << ", \"recovered\": "
            << det->recoveries() << ", \"unrecoverable\": "
            << (det->unrecoverable() ? "true" : "false");
        if (!det->waitGraphJson().empty())
            out << ", \"wait_graph\": " << det->waitGraphJson();
        out << "}";
    }

    if (const net::FaultInjector* inj = net.faultInjector()) {
        out << ",\n  \"faults\": {\n";
        out << "    \"flits_corrupted\": " << inj->flitsCorrupted()
            << ",\n";
        out << "    \"flits_outage_dropped\": "
            << inj->flitsOutageDropped() << ",\n";
        out << "    \"flits_discarded\": " << inj->flitsDiscarded()
            << ",\n";
        out << "    \"packets_retransmitted\": "
            << inj->packetsRetransmitted() << ",\n";
        out << "    \"packets_lost\": " << inj->packetsLost() << ",\n";
        out << "    \"event_count\": " << inj->eventCount() << ",\n";
        out << "    \"log_hash\": " << inj->faultLogHash() << ",\n";
        const auto& log = inj->log();
        constexpr std::size_t kTail = 64;
        const std::size_t first =
            log.size() > kTail ? log.size() - kTail : 0;
        out << "    \"log_tail\": [\n";
        for (std::size_t i = first; i < log.size(); ++i) {
            const net::FaultEvent& ev = log[i];
            out << "      {\"cycle\": " << ev.cycle << ", \"kind\": \""
                << faultKindName(ev.kind) << "\", \"link\": "
                << ev.link << ", \"packet\": " << ev.packetId << "}"
                << (i + 1 < log.size() ? "," : "") << "\n";
        }
        out << "    ]\n  }";
    }

    out << "\n}\n";
    return out.str();
}

} // namespace orion
