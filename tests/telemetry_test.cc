/**
 * @file
 * Tests for the telemetry subsystem: the metric registry, windowed
 * sampler, flit tracer, and their wiring through Simulation and the
 * sweep drivers. The key guarantees: the all-disabled configuration
 * changes nothing, counter deltas reconcile with the end-of-run
 * report, and every export is bit-identical at any --jobs.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/cli.hh"
#include "core/config.hh"
#include "core/simulation.hh"
#include "core/sweep.hh"
#include "json_validator.hh"
#include "net/sampler.hh"
#include "sim/simulator.hh"
#include "sim/telemetry.hh"

namespace {

using namespace orion;

TrafficConfig
uniform(double rate)
{
    TrafficConfig t;
    t.injectionRate = rate;
    return t;
}

SimConfig
smallRun()
{
    SimConfig s;
    s.samplePackets = 300;
    s.maxCycles = 100000;
    return s;
}

// --- MetricsRegistry ------------------------------------------------

TEST(MetricsRegistry, RegistersAndReads)
{
    telemetry::MetricsRegistry reg;
    double level = 3.0;
    std::uint64_t count = 7;
    reg.addGauge("queue.depth", [&level] { return level; });
    reg.addCounter("flits.total",
                   [&count] { return double(count); });

    ASSERT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.name(0), "queue.depth");
    EXPECT_EQ(reg.kind(0), telemetry::MetricKind::Gauge);
    EXPECT_EQ(reg.kind(1), telemetry::MetricKind::Counter);
    EXPECT_DOUBLE_EQ(reg.read(0), 3.0);
    EXPECT_DOUBLE_EQ(reg.read(1), 7.0);

    level = 5.0;
    EXPECT_DOUBLE_EQ(reg.read(0), 5.0);

    EXPECT_EQ(reg.find("flits.total"), 1u);
    EXPECT_EQ(reg.find("missing"), telemetry::MetricsRegistry::npos);
}

TEST(MetricsRegistry, DuplicateNameThrows)
{
    telemetry::MetricsRegistry reg;
    reg.addCounter("x", [] { return 0.0; });
    EXPECT_THROW(reg.addGauge("x", [] { return 0.0; }),
                 std::invalid_argument);
}

// --- WindowedSampler ------------------------------------------------

TEST(WindowedSampler, CounterDeltasAndGaugeLevels)
{
    telemetry::MetricsRegistry reg;
    double counter = 0.0;
    double gauge = 0.0;
    reg.addCounter("c", [&counter] { return counter; });
    reg.addGauge("g", [&gauge] { return gauge; });

    net::WindowedSampler sampler(reg, 10);
    counter = 4.0;
    gauge = 2.0;
    sampler.sample(10);
    counter = 9.0;
    gauge = 7.0;
    sampler.sample(20);

    ASSERT_EQ(sampler.windows().size(), 2u);
    EXPECT_EQ(sampler.windows()[0].start, 0u);
    EXPECT_EQ(sampler.windows()[0].end, 10u);
    EXPECT_DOUBLE_EQ(sampler.windows()[0].values[0], 4.0); // delta
    EXPECT_DOUBLE_EQ(sampler.windows()[0].values[1], 2.0); // level
    EXPECT_DOUBLE_EQ(sampler.windows()[1].values[0], 5.0);
    EXPECT_DOUBLE_EQ(sampler.windows()[1].values[1], 7.0);

    // finalize() at the same cycle records no zero-length window.
    sampler.finalize(20);
    EXPECT_EQ(sampler.windows().size(), 2u);
    // ... but a partial window is closed.
    counter = 10.0;
    sampler.finalize(25);
    ASSERT_EQ(sampler.windows().size(), 3u);
    EXPECT_EQ(sampler.windows()[2].end, 25u);
    EXPECT_DOUBLE_EQ(sampler.windows()[2].values[0], 1.0);
}

TEST(WindowedSampler, RebaselineDropsHistoryAndRebasesCounters)
{
    telemetry::MetricsRegistry reg;
    double counter = 0.0;
    reg.addCounter("c", [&counter] { return counter; });

    net::WindowedSampler sampler(reg, 10);
    counter = 100.0;
    sampler.sample(10);
    ASSERT_EQ(sampler.windows().size(), 1u);

    // Mid-run counter reset (PowerMonitor::reset at measure start):
    // rebaseline discards warm-up windows and rebases so the next
    // delta is not negative.
    counter = 0.0;
    sampler.rebaseline(10);
    EXPECT_TRUE(sampler.windows().empty());
    counter = 3.0;
    sampler.sample(20);
    ASSERT_EQ(sampler.windows().size(), 1u);
    EXPECT_DOUBLE_EQ(sampler.windows()[0].values[0], 3.0);
}

TEST(WindowedSampler, CsvFormat)
{
    telemetry::MetricsRegistry reg;
    double counter = 0.0;
    reg.addCounter("a.b", [&counter] { return counter; });
    net::WindowedSampler sampler(reg, 5);
    counter = 1.0;
    sampler.sample(5);

    std::ostringstream out;
    sampler.writeCsv(out);
    EXPECT_EQ(out.str(),
              "window,cycle_start,cycle_end,metric,kind,value\n"
              "0,0,5,a.b,counter,1\n");
}

TEST(WindowedSampler, RegistersPeriodicHookWithSimulator)
{
    telemetry::MetricsRegistry reg;
    reg.addGauge("g", [] { return 1.0; });
    net::WindowedSampler sampler(reg, 3);

    sim::Simulator s;
    EXPECT_EQ(s.periodicCount(), 0u);
    sampler.registerWith(s);
    EXPECT_EQ(s.periodicCount(), 1u);
    s.run(10); // boundaries at 3, 6, 9
    EXPECT_EQ(sampler.windows().size(), 3u);
}

// --- FlitTracer -----------------------------------------------------

TEST(FlitTracer, RingBufferBoundsRetention)
{
    sim::EventBus bus;
    telemetry::FlitTracer tracer(bus, 4);
    for (unsigned i = 0; i < 10; ++i) {
        bus.emit({sim::EventType::BufferWrite, 0, 0, 0, 0,
                  sim::Cycle(i)});
    }
    EXPECT_EQ(tracer.totalRecorded(), 10u);
    EXPECT_EQ(tracer.dropped(), 6u);

    // The retained records are the most recent ones, in order.
    std::ostringstream out;
    tracer.writeJson(out, "ring");
    const std::string json = out.str();
    EXPECT_EQ(json.find("\"ts\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"ts\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"ts\": 9"), std::string::npos);
    test::JsonValidator v(json);
    EXPECT_TRUE(v.valid());
}

TEST(FlitTracer, LabelWithQuotesAndBackslashesStaysValidJson)
{
    sim::EventBus bus;
    telemetry::FlitTracer tracer(bus, 8);
    tracer.addInstant("nack", 1, 0, 5, 42);

    std::ostringstream out;
    tracer.writeJson(out, "say \"hi\" \\ bye");
    const std::string json = out.str();
    test::JsonValidator v(json);
    EXPECT_TRUE(v.valid());
    EXPECT_NE(json.find("say \\\"hi\\\" \\\\ bye"), std::string::npos);
}

// --- Simulation wiring ----------------------------------------------

TEST(SimulationTelemetry, DisabledRegistersNothing)
{
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), smallRun());
    EXPECT_EQ(sim.metrics(), nullptr);
    EXPECT_EQ(sim.sampler(), nullptr);
    EXPECT_EQ(sim.tracer(), nullptr);
    EXPECT_EQ(sim.simulator().periodicCount(), 0u);
    EXPECT_TRUE(sim.metricsCsv().empty());
    EXPECT_TRUE(sim.traceJson("x").empty());
}

TEST(SimulationTelemetry, DisabledReportIsIdenticalToEnabled)
{
    // Telemetry observation must not perturb simulation state: the
    // full CSV report (latency, power, event counts) is identical
    // with sampling+tracing on and off.
    cli::Options opts;
    opts.network = NetworkConfig::vc16();
    opts.traffic = uniform(0.06);
    opts.sim = smallRun();

    Simulation plain(opts.network, opts.traffic, opts.sim);
    const std::string base =
        cli::formatCsvReport(opts, plain.run());

    SimConfig instrumented = opts.sim;
    instrumented.telemetry.sampleInterval = 100;
    instrumented.telemetry.traceEnabled = true;
    Simulation traced(opts.network, opts.traffic, instrumented);
    const std::string observed =
        cli::formatCsvReport(opts, traced.run());

    EXPECT_EQ(base, observed);
}

TEST(SimulationTelemetry, EnergyCountersReconcileWithReport)
{
    SimConfig s = smallRun();
    s.telemetry.sampleInterval = 50;
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed);

    const auto* reg = sim.metrics();
    const auto* sampler = sim.sampler();
    ASSERT_NE(reg, nullptr);
    ASSERT_NE(sampler, nullptr);
    ASSERT_FALSE(sampler->windows().empty());

    // Sum of per-window power.* deltas == the report's dynamic
    // energy: the time series tiles the measurement window exactly.
    double energy = 0.0;
    for (const auto& w : sampler->windows()) {
        for (std::size_t i = 0; i < reg->size(); ++i) {
            if (reg->name(i).rfind("power.", 0) == 0)
                energy += w.values[i];
        }
    }
    EXPECT_NEAR(energy, r.dynamicEnergyJoules,
                1e-9 * std::max(1.0, r.dynamicEnergyJoules));

    // Same reconciliation for sample packets: latency.count tallies
    // exactly one increment per ejected sample packet. (The
    // net.packets_ejected counter is broader — it also sees warm-up
    // stragglers draining inside the measurement window.)
    const std::size_t lat = reg->find("latency.count");
    ASSERT_NE(lat, telemetry::MetricsRegistry::npos);
    double sampled = 0.0;
    for (const auto& w : sampler->windows())
        sampled += w.values[lat];
    EXPECT_DOUBLE_EQ(sampled, double(r.sampleEjected));

    const std::size_t ej = reg->find("net.packets_ejected");
    ASSERT_NE(ej, telemetry::MetricsRegistry::npos);
    double ejected = 0.0;
    for (const auto& w : sampler->windows())
        ejected += w.values[ej];
    EXPECT_GE(ejected, double(r.sampleEjected));
}

TEST(SimulationTelemetry, MeasuredActivityFactorsAreExact)
{
    // Random payloads toggle each crossbar and link wire with
    // probability 1/2: the measured activity factor is the alpha the
    // average-case models assume.
    SimConfig s = smallRun();
    s.telemetry.sampleInterval = 200;
    Simulation sim(NetworkConfig::vc16(), uniform(0.05), s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed);
    const auto* reg = sim.metrics();
    ASSERT_NE(reg, nullptr);

    const auto read = [reg](const std::string& name) {
        const std::size_t i = reg->find(name);
        EXPECT_NE(i, telemetry::MetricsRegistry::npos) << name;
        return i == telemetry::MetricsRegistry::npos ? -1.0
                                                     : reg->read(i);
    };
    EXPECT_NEAR(read("activity.crossbar_traversal.alpha"), 0.5, 0.01);
    EXPECT_NEAR(read("activity.link_traversal.alpha"), 0.5, 0.01);
    for (const char* a : {"buffer_write.alpha", "buffer_write.cell_alpha",
                          "arbitration.alpha", "vc_allocation.alpha"}) {
        const double alpha = read(std::string("activity.") + a);
        EXPECT_GT(alpha, 0.0) << a;
        EXPECT_LE(alpha, 1.0) << a;
    }

    // The counters are exact integers: their window deltas add up to
    // the report's event counts, and alpha is toggles over
    // events x wires.
    const std::size_t ev = reg->find("activity.crossbar_traversal.events");
    ASSERT_NE(ev, telemetry::MetricsRegistry::npos);
    double events = 0.0;
    for (const auto& w : sim.sampler()->windows())
        events += w.values[ev];
    const auto xbar = static_cast<unsigned>(
        sim::EventType::CrossbarTraversal);
    EXPECT_EQ(events, double(r.eventCounts[xbar]));
    const double width = NetworkConfig::vc16().net.flitBits;
    EXPECT_EQ(read("activity.crossbar_traversal.alpha"),
              read("activity.crossbar_traversal.toggles") /
                  (double(r.eventCounts[xbar]) * width));
}

TEST(SimulationTelemetry, ThreePacketTraceIsValidChromeJson)
{
    SimConfig s;
    s.samplePackets = 3;
    s.warmupCycles = 0;
    s.maxCycles = 100000;
    s.telemetry.traceEnabled = true;
    s.telemetry.traceCapacity = 1 << 16;
    Simulation sim(NetworkConfig::vc16(), uniform(0.01), s);
    const Report r = sim.run();
    ASSERT_TRUE(r.completed);

    const std::string json = sim.traceJson("three packets");
    test::JsonValidator v(json);
    EXPECT_TRUE(v.valid());

    // The golden structure: every pipeline stage appears as a span
    // ("ph": "X"), packet boundaries as instants ("ph": "i"), and
    // track metadata names the nodes.
    for (const char* phase :
         {"buffer_write", "buffer_read", "arbitration",
          "vc_allocation", "crossbar_traversal", "link_traversal"}) {
        EXPECT_NE(json.find('"' + std::string(phase) + '"'),
                  std::string::npos)
            << phase;
    }
    EXPECT_NE(json.find("\"packet_injected\""), std::string::npos);
    EXPECT_NE(json.find("\"packet_ejected\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
}

TEST(SimulationTelemetry, SaStallsAndCreditsObservable)
{
    SimConfig s = smallRun();
    s.telemetry.sampleInterval = 100;
    // High load so switch allocation actually contends.
    Simulation sim(NetworkConfig::vc16(), uniform(0.20), s);
    sim.run();

    const auto* reg = sim.metrics();
    ASSERT_NE(reg, nullptr);
    const std::size_t stalls = reg->find("router.5.sa_stalls");
    ASSERT_NE(stalls, telemetry::MetricsRegistry::npos);
    EXPECT_GT(reg->read(stalls), 0.0);
}

// --- Sweep determinism ----------------------------------------------

TEST(SweepTelemetry, ExportsAreBitIdenticalAcrossJobs)
{
    const NetworkConfig net = NetworkConfig::vc16();
    const TrafficConfig traffic = uniform(0.05);
    SimConfig s;
    s.samplePackets = 200;
    s.maxCycles = 100000;
    s.telemetry.sampleInterval = 200;
    s.telemetry.traceEnabled = true;
    s.telemetry.traceCapacity = 4096;
    const std::vector<double> rates{0.03, 0.06, 0.09};

    const auto serial =
        Sweep::overRates(net, traffic, s, rates, SweepOptions::withJobs(1));
    const auto parallel =
        Sweep::overRates(net, traffic, s, rates, SweepOptions::withJobs(4));

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].metricsCsv.empty());
        EXPECT_FALSE(serial[i].traceJson.empty());
        EXPECT_EQ(serial[i].metricsCsv, parallel[i].metricsCsv) << i;
        EXPECT_EQ(serial[i].traceJson, parallel[i].traceJson) << i;
    }
}

TEST(SweepTelemetry, DisabledSweepCapturesNothing)
{
    const auto points = Sweep::overRates(
        NetworkConfig::vc16(), uniform(0.05), smallRun(), {0.05},
        SweepOptions::withJobs(1));
    ASSERT_EQ(points.size(), 1u);
    EXPECT_TRUE(points[0].metricsCsv.empty());
    EXPECT_TRUE(points[0].traceJson.empty());
}

} // namespace
