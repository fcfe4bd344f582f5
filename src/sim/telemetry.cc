#include "sim/telemetry.hh"

#include <cassert>
#include <stdexcept>

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

void
MetricsRegistry::writeJson(report::JsonWriter& out) const
{
    out.beginObject();
    for (const Metric& m : metrics_)
        out.field(m.name, m.read());
    out.endObject();
}

void
registerPhaseMetrics(MetricsRegistry& reg,
                     const core::PhaseProfiler& profiler)
{
    using Phase = core::PhaseProfiler::Phase;
    constexpr unsigned kFirstRun = static_cast<unsigned>(Phase::Warmup);
    constexpr unsigned kEnd = core::PhaseProfiler::kNumPhases;
    for (unsigned i = 0; i < kEnd; ++i) {
        const auto phase = static_cast<Phase>(i);
        // The family: cycle stages [0, kFirstRun), run phases after.
        const bool run = i >= kFirstRun;
        const unsigned first = run ? kFirstRun : 0;
        const unsigned last = run ? kEnd : kFirstRun;
        const std::string name =
            std::string(run ? "core.run." : "sim.phase.") +
            core::PhaseProfiler::phaseName(phase);
        reg.addGauge(name + "_s",
                     [&profiler, phase] { return profiler.seconds(phase); });
        reg.addGauge(name + "_share", [&profiler, phase, first, last] {
            double total = 0.0;
            for (unsigned k = first; k < last; ++k)
                total += profiler.seconds(static_cast<Phase>(k));
            return total > 0.0 ? profiler.seconds(phase) / total : 0.0;
        });
    }
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

std::string
FlitTracer::toJson(const std::string& label,
                   const MetricsRegistry& metrics) const
{
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

    report::JsonWriter w;
    w.beginObject().key("traceEvents").beginArray(/*onePerLine=*/true);
    for (const auto& [node, comp] : tracks) {
        w.beginObject().field("ph", "M").field("pid", node);
        w.field("name", "process_name").key("args").beginObject();
        w.field("name", "node " + std::to_string(node));
        w.endObject().endObject();
        w.beginObject().field("ph", "M").field("pid", node);
        w.field("tid", comp).field("name", "thread_name");
        w.key("args").beginObject();
        w.field("name", "component " + std::to_string(comp));
        w.endObject().endObject();
    }
    each([&](const Record& r) {
        w.beginObject().field("name", r.name).field("pid", r.node);
        w.field("tid", r.component).field("ts", r.cycle);
        if (r.span) {
            w.field("ph", "X").field("dur", 1).key("args").beginObject();
        } else {
            w.field("ph", "i").field("s", "t").key("args").beginObject();
            w.field("packet", r.packetId);
        }
        w.field("delta", r.deltaA).endObject().endObject();
    });
    w.endArray().field("displayTimeUnit", "ms");
    w.key("otherData").beginObject().field("label", label);
    w.field("recorded", total_).field("dropped", dropped());
    w.key("metrics");
    metrics.writeJson(w);
    return w.endObject().endObject().takeLine();
}

} // namespace orion::telemetry
