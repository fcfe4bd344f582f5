#include "sim/telemetry.hh"

#include <cassert>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "base/json.hh"

namespace orion::telemetry {

const char*
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge:   return "gauge";
    }
    return "unknown";
}

void
MetricsRegistry::add(MetricKind kind, std::string name, Reader read)
{
    assert(read && "metric reader must be callable");
    if (find(name) != npos) {
        throw std::invalid_argument("telemetry: duplicate metric '" +
                                    name + "'");
    }
    metrics_.push_back({kind, std::move(name), std::move(read)});
}

std::size_t
MetricsRegistry::find(const std::string& name) const
{
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (metrics_[i].name == name)
            return i;
    }
    return npos;
}

FlitTracer::FlitTracer(sim::EventBus& bus, std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1)
{
    ring_.reserve(capacity_ < 4096 ? capacity_ : 4096);
    // The tracer is only constructed when tracing is enabled, so a
    // disabled run has no telemetry handlers on the bus at all.
    for (unsigned t = 0; t < sim::kNumEventTypes; ++t) {
        bus.subscribeRaw(
            static_cast<sim::EventType>(t),
            [](void* ctx, const sim::Event& ev) {
                static_cast<FlitTracer*>(ctx)->onEvent(ev);
            },
            this);
    }
}

void
FlitTracer::record(const Record& rec)
{
    ++total_;
    if (ring_.size() < capacity_) {
        ring_.push_back(rec);
        return;
    }
    // Ring full: overwrite the oldest record.
    ring_[head_] = rec;
    head_ = (head_ + 1) % capacity_;
}

void
FlitTracer::onEvent(const sim::Event& ev)
{
    // Pipeline-stage events render as 1-cycle spans; everything else
    // (credits, packet boundaries) as instants.
    bool span = false;
    switch (ev.type) {
      case sim::EventType::BufferWrite:
      case sim::EventType::BufferRead:
      case sim::EventType::Arbitration:
      case sim::EventType::VcAllocation:
      case sim::EventType::CrossbarTraversal:
      case sim::EventType::CentralBufferWrite:
      case sim::EventType::CentralBufferRead:
      case sim::EventType::LinkTraversal:
        span = true;
        break;
      default:
        break;
    }
    record({sim::eventTypeName(ev.type), ev.node, ev.component,
            ev.deltaA, 0, ev.cycle, span});
}

void
FlitTracer::addInstant(const char* name, int node, int component,
                       sim::Cycle cycle, std::uint64_t packet_id)
{
    record({name, node, component, 0, packet_id, cycle, false});
}

void
FlitTracer::writeJson(std::ostream& out, const std::string& label) const
{
    out << "{\n\"traceEvents\": [\n";

    // Track metadata: name the processes/threads that appear, once
    // each. (pid, tid) pairs are few; collect them linearly.
    std::vector<std::pair<int, int>> tracks;
    const auto each = [&](const auto& fn) {
        // Chronological order: the ring's oldest record sits at head_
        // once the buffer wrapped, at 0 otherwise.
        const std::size_t n = ring_.size();
        const std::size_t start = n == capacity_ ? head_ : 0;
        for (std::size_t k = 0; k < n; ++k)
            fn(ring_[(start + k) % n]);
    };
    each([&](const Record& r) {
        const std::pair<int, int> key{r.node, r.component};
        for (const auto& t : tracks)
            if (t == key)
                return;
        tracks.push_back(key);
    });

    bool first = true;
    const auto sep = [&] {
        if (!first)
            out << ",\n";
        first = false;
    };
    for (const auto& [node, comp] : tracks) {
        sep();
        out << "{\"ph\": \"M\", \"pid\": " << node
            << ", \"name\": \"process_name\", \"args\": {\"name\": "
               "\"node "
            << node << "\"}},\n";
        out << "{\"ph\": \"M\", \"pid\": " << node << ", \"tid\": "
            << comp
            << ", \"name\": \"thread_name\", \"args\": {\"name\": "
               "\"component "
            << comp << "\"}}";
    }

    each([&](const Record& r) {
        sep();
        out << "{\"name\": \"" << report::jsonEscape(r.name)
            << "\", \"pid\": " << r.node << ", \"tid\": " << r.component
            << ", \"ts\": " << r.cycle;
        if (r.span) {
            out << ", \"ph\": \"X\", \"dur\": 1, \"args\": {\"delta\": "
                << r.deltaA << "}";
        } else {
            out << ", \"ph\": \"i\", \"s\": \"t\", \"args\": "
                   "{\"packet\": "
                << r.packetId << ", \"delta\": " << r.deltaA << "}";
        }
        out << "}";
    });

    out << "\n],\n";
    out << "\"displayTimeUnit\": \"ms\",\n";
    out << "\"otherData\": {\"label\": \"" << report::jsonEscape(label)
        << "\", \"recorded\": " << total_
        << ", \"dropped\": " << dropped() << "}\n";
    out << "}\n";
}

} // namespace orion::telemetry
