/**
 * @file
 * perfbench: the repository benchmark (see README.md beside this file).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--reference DIR] [--out DIR] [--record-reference]
 *
 * Runs one workload as a closed loop for S seconds, checks every
 * simulated output against the stored reference digests, and prints
 * every metric by name and unit. The last line of standard output is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 alternates
 * untraced and traced iterations and reports the per-layer metrics; it
 * also writes <out>/<workload>.trace.json (Chrome trace events of the
 * spans) and <out>/<workload>.layers.json (every per-layer metric with
 * its sample count, and the tracing overhead).
 *
 * --record-reference runs one untraced iteration and prints its
 * digests in the reference file format instead.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/build_info.hh"
#include "core/simulation.hh"
#include "core/sweep.hh"
#include "reference.hh"
#include "trace.hh"
#include "workloads.hh"

namespace {

using namespace orion;
using namespace perfbench;

/** Fewest iterations a run reports on, whatever --seconds. */
constexpr unsigned kMinIterations = 3;
/**
 * Set-up is timed by repeated constructions: a few rounds before the
 * first iteration, then after each iteration for this share of its
 * time, so the rounds span the whole run's host conditions.
 */
constexpr unsigned kMinSetupRounds = 5;
constexpr double kSetupShare = 0.05;
/** Rounds per block, for networks built in well under a millisecond. */
constexpr unsigned kMaxSetupRounds = 20;
/**
 * A kernel's run() is timed in pieces of this many cycles, about 10 ms
 * on k16n2 and 0.5 ms on vc16: shorter than the host's fast spells,
 * and long enough that reading the clock costs nothing measurable.
 */
constexpr sim::Cycle kChunkCycles = 64;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool record = false;
    std::string referenceDir = "perfbench/reference";
    std::string outDir = ".bench_build/perfbench-out";
};

/** Linear-interpolation quantile (q in [0, 1]) of a non-empty set. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

/**
 * The fastest of a run's timings, which the end-to-end metrics report.
 * Contention on a shared host slows every CPU it lends at once, for
 * seconds at a time, and never speeds a run up: the fastest sample is
 * the one it disturbed least, where a median follows the share of the
 * run the host spent slow.
 */
double
fastest(const std::vector<double>& v)
{
    return quantile(v, 0.0);
}

unsigned
nodesOf(const NetworkConfig& cfg)
{
    unsigned n = 1;
    for (const unsigned k : cfg.net.dims)
        n *= k;
    return n;
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/** Whole-run flits ejected (the kernel's serial flits/s numerator). */
std::uint64_t
wholeRunFlits(const net::Network& network)
{
    std::uint64_t flits = 0;
    const unsigned n = network.topology().numNodes();
    for (unsigned i = 0; i < n; ++i)
        flits += network.endpoint(static_cast<int>(i)).flitsEjectedTotal();
    return flits;
}

/** Is @p type one of the packet events the power monitor ignores? */
bool
packetEvent(sim::EventType type)
{
    return type == sim::EventType::PacketInjected ||
           type == sim::EventType::PacketEjected;
}

/**
 * Records every event of the measurement window (cycle >= the first
 * measured cycle) from a simulation's bus, for replay.
 */
class EventRecorder
{
  public:
    EventRecorder(sim::EventBus& bus, sim::Cycle from, std::size_t reserve)
        : from_(from)
    {
        events_.reserve(reserve);
        for (unsigned t = 0; t < sim::kNumEventTypes; ++t) {
            bus.subscribeRaw(
                static_cast<sim::EventType>(t),
                [](void* ctx, const sim::Event& ev) {
                    static_cast<EventRecorder*>(ctx)->record(ev);
                },
                this);
        }
    }
    EventRecorder(const EventRecorder&) = delete;
    EventRecorder& operator=(const EventRecorder&) = delete;

    const std::vector<sim::Event>& events() const { return events_; }

  private:
    void
    record(const sim::Event& ev)
    {
        if (ev.cycle >= from_)
            events_.push_back(ev);
    }

    sim::Cycle from_;
    std::vector<sim::Event> events_;
};

/** What the traced run learns about the layers of one simulation. */
struct SimLayers
{
    double runS = 0.0;
    /** run() cut at every kChunkCycles-th cycle: the seconds of each
     * piece, in order. */
    std::vector<double> chunkS;
    double warmupS = 0.0;
    double measureS = 0.0;
    double drainS = 0.0;
    /** Sampled seconds of the four cycle phases, in PhaseProfiler
     * order: router advance, channel advance, audit, periodic. */
    std::array<double, 4> phaseS{};
    /** Router-advance seconds scaled from sampled to all cycles. */
    double routerS = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t flits = 0;
    std::uint64_t packets = 0;
    std::uint64_t hops = 0;
    std::array<std::uint64_t, sim::kNumEventTypes> events{};
    std::uint64_t replayEvents = 0;
    double replayS = 0.0;
    bool replayMatch = true;

    SimLayers&
    operator+=(const SimLayers& o)
    {
        runS += o.runS;
        warmupS += o.warmupS;
        measureS += o.measureS;
        drainS += o.drainS;
        for (std::size_t i = 0; i < phaseS.size(); ++i)
            phaseS[i] += o.phaseS[i];
        routerS += o.routerS;
        cycles += o.cycles;
        flits += o.flits;
        packets += o.packets;
        hops += o.hops;
        for (std::size_t i = 0; i < events.size(); ++i)
            events[i] += o.events[i];
        replayEvents += o.replayEvents;
        replayS += o.replayS;
        replayMatch = replayMatch && o.replayMatch;
        return *this;
    }
};

/** One pass of the workload's closed loop. */
struct Iteration
{
    bool traced = false;
    /** Wall time of the timed calls: run(), or every overRates. */
    double runS = 0.0;
    /** runS cut into pieces that are the same work in every iteration:
     * run() at every kChunkCycles-th cycle, or each overRates call. */
    std::vector<double> pieceS;
    /** Kernel: whole-run flits ejected; sweep: window flits of all
     * points. */
    std::uint64_t flits = 0;
    std::uint64_t packets = 0;
    std::uint64_t cycles = 0;
    unsigned points = 0;
    unsigned attempts = 0;
    std::vector<double> pointS;
    double busyS = 0.0;
    /** Simulations checked, and how many were wrong. */
    unsigned runs = 0;
    unsigned failed = 0;
    SimLayers layers;
};

/** Per-round sums of the set-up calls over the workload's networks. */
struct Setup
{
    std::vector<double> construct;
    std::vector<double> buildModels;
    std::vector<double> network;
};

class Bench
{
  public:
    Bench(const Workload& w, const Options& o)
        : w_(w),
          o_(o),
          jobs_(w.sweep ? std::max(1u, availableCpus() / 2) : 1),
          checker_(Reference::load(o.referenceDir + "/" + w.name + ".txt"),
                   o.seed, o.record)
    {
    }

    unsigned jobs() const { return jobs_; }
    Checker& checker() { return checker_; }

    /** Time rounds of set-up calls for @p seconds (at least
     * @p min_rounds and at most kMaxSetupRounds rounds), appending
     * them to @p s. */
    void measureSetup(SpanRecorder* rec, double seconds,
                      unsigned min_rounds, Setup& s);
    Iteration iterate(SpanRecorder* rec);

  private:
    double setupRate() const { return w_.rates[w_.probeRate]; }
    Iteration kernel(SpanRecorder* rec);
    Iteration sweep(SpanRecorder* rec);
    SimLayers simulate(const NetworkCase& net, std::size_t rate_index,
                       std::uint64_t seed, SpanRecorder* rec,
                       SpanRecorder::Id parent, bool& ok);

    const Workload& w_;
    const Options& o_;
    /** Sweep workers: half the CPUs, so that the sweep is not timing
     * the host's scheduler (README.md, "Host noise"). */
    unsigned jobs_;
    Checker checker_;
    /** Largest window seen so far, to size the next recording. */
    std::size_t eventsHint_ = 0;
};

void
Bench::measureSetup(SpanRecorder* rec, double seconds, unsigned min_rounds,
                    Setup& s)
{
    const double start = nowSeconds();
    const TrafficConfig traffic = uniformTraffic(setupRate());
    const SimConfig cfg = protocol(o_.seed);
    for (unsigned round = 0; round < kMaxSetupRounds; ++round) {
        if (round >= min_rounds && nowSeconds() - start >= seconds)
            break;
        Scope top(rec, "setup");
        double construct = 0.0, models = 0.0, network = 0.0;
        for (const NetworkCase& net : w_.networks) {
            // The layer-by-layer split is only taken on traced runs;
            // untraced runs time the Simulation constructor alone.
            if (rec != nullptr) {
                {
                    Scope span(rec, "NetworkConfig::buildModels " +
                                        net.name, top.id());
                    const net::PowerModelSet set = net.config.buildModels();
                    models += span.close();
                }
                sim::Simulator scratch;
                Scope span(rec, "net::Network " + net.name, top.id());
                const net::Network built(scratch, net.config.net, traffic,
                                         o_.seed);
                network += span.close();
            }
            Scope span(rec, "Simulation::Simulation " + net.name, top.id());
            const Simulation sim(net.config, traffic, cfg);
            construct += span.close();
        }
        s.construct.push_back(construct);
        s.buildModels.push_back(models);
        s.network.push_back(network);
    }
}

Iteration
Bench::iterate(SpanRecorder* rec)
{
    Iteration it = w_.sweep ? sweep(rec) : kernel(rec);
    it.traced = rec != nullptr;
    return it;
}

/**
 * One checked Simulation of @p net at one rate. Untraced (@p rec null),
 * it times run() and counts the cycles and flits; traced, it also turns
 * on the PhaseProfiler, records the bus's events and replays them.
 */
SimLayers
Bench::simulate(const NetworkCase& net, std::size_t rate_index,
                std::uint64_t seed, SpanRecorder* rec,
                SpanRecorder::Id parent, bool& ok)
{
    const std::string cas = caseName(net, rate_index);
    SimConfig cfg = protocol(seed);
    cfg.profilePhases = rec != nullptr;
    SimLayers l;

    Scope ctor(rec, "Simulation::Simulation " + cas, parent);
    Simulation s(net.config, uniformTraffic(w_.rates[rate_index]), cfg);
    ctor.close();
    // The power monitor's window opens when the warm-up ends.
    std::optional<EventRecorder> recorder;
    if (rec != nullptr)
        recorder.emplace(s.simulator().bus(), cfg.warmupCycles, eventsHint_);
    std::vector<double> marks;
    s.simulator().addPeriodic("perfbench.chunk", kChunkCycles,
                              [&marks](sim::Cycle) {
                                  marks.push_back(nowSeconds());
                              });
    Scope run(rec, "Simulation::run " + cas, parent);
    marks.push_back(nowSeconds());
    const Report r = s.run();
    marks.push_back(nowSeconds());
    l.runS = run.close();
    for (std::size_t i = 1; i < marks.size(); ++i)
        l.chunkS.push_back(marks[i] - marks[i - 1]);
    ok = checker_.check(cas, r, nodesOf(net.config));
    l.cycles = r.totalCycles;
    l.flits = wholeRunFlits(s.network());
    l.packets = s.network().totalEjected();
    if (rec == nullptr)
        return l;

    const core::PhaseProfiler& prof = *s.phaseProfiler();
    using Phase = core::PhaseProfiler::Phase;
    l.warmupS = prof.seconds(Phase::Warmup);
    l.measureS = prof.seconds(Phase::Measure);
    l.drainS = prof.seconds(Phase::Drain);
    for (unsigned p = 0; p < l.phaseS.size(); ++p)
        l.phaseS[p] = prof.seconds(static_cast<Phase>(p));
    if (prof.sampledCycles() > 0) {
        l.routerS = l.phaseS[0] * static_cast<double>(prof.cycles()) /
                    static_cast<double>(prof.sampledCycles());
    }
    const unsigned n = s.network().topology().numNodes();
    for (unsigned i = 0; i < n; ++i)
        l.hops += s.network().router(static_cast<int>(i)).flitsForwarded();
    for (unsigned t = 0; t < sim::kNumEventTypes; ++t) {
        l.events[t] = s.simulator().bus().emittedCount(
            static_cast<sim::EventType>(t));
    }

    // Replay the window into a fresh bus and power monitor: the cost of
    // event dispatch plus energy accounting alone, and a check that
    // the run's energy ledger is exactly the sum of its events.
    const std::vector<sim::Event>& events = recorder->events();
    eventsHint_ = std::max(eventsHint_, events.size());
    Scope replay(rec, "replay " + cas, parent);
    sim::EventBus bus;
    net::PowerMonitor monitor(bus, s.networkConfig().buildModels(), n,
                              s.network().linksFrom(0));
    const double t0 = nowSeconds();
    for (const sim::Event& ev : events)
        bus.emit(ev);
    l.replayS = nowSeconds() - t0;
    replay.close();
    l.replayEvents = events.size();
    l.replayMatch = monitor.energyLedger() == s.monitor().energyLedger();
    for (unsigned t = 0; t < sim::kNumEventTypes; ++t) {
        const auto type = static_cast<sim::EventType>(t);
        l.replayMatch = l.replayMatch && monitor.eventCount(type) ==
                                             s.monitor().eventCount(type);
    }
    return l;
}

Iteration
Bench::kernel(SpanRecorder* rec)
{
    Iteration it;
    bool ok = false;
    Scope top(rec, "iteration");
    it.layers = simulate(w_.networks.front(), 0, o_.seed, rec, top.id(), ok);
    it.runS = it.layers.runS;
    it.pieceS = it.layers.chunkS;
    it.flits = it.layers.flits;
    it.packets = it.layers.packets;
    it.cycles = it.layers.cycles;
    it.points = 1;
    it.attempts = 1;
    it.pointS = {it.runS};
    it.busyS = it.runS;
    it.runs = 1;
    it.failed = ok ? 0 : 1;
    return it;
}

Iteration
Bench::sweep(SpanRecorder* rec)
{
    Iteration it;
    Scope top(rec, "iteration");
    const SimConfig cfg = protocol(o_.seed);
    const TrafficConfig traffic = uniformTraffic(0.0);
    for (const NetworkCase& net : w_.networks) {
        Scope call(rec, "Sweep::overRates " + net.name, top.id());
        const std::vector<SweepPoint> points = Sweep::overRates(
            net.config, traffic, cfg, w_.rates,
            SweepOptions::withJobs(jobs_));
        it.pieceS.push_back(call.close());
        it.runS += it.pieceS.back();
        const unsigned nodes = nodesOf(net.config);
        for (std::size_t i = 0; i < points.size(); ++i) {
            const SweepPoint& p = points[i];
            ++it.points;
            ++it.runs;
            it.attempts += p.attempts;
            if (!p.ran ||
                !checker_.check(caseName(net, i), p.report, nodes))
                ++it.failed;
            if (p.resources.valid) {
                it.pointS.push_back(p.resources.wallSeconds);
                it.busyS += p.resources.wallSeconds;
            }
            const Digest d = digestOf(p.report, nodes);
            it.flits += d.windowFlits;
            it.packets += d.packets;
            it.cycles += d.cycles;
        }
    }
    if (rec != nullptr) {
        // Sweep points run inside the library's workers, out of the
        // benchmark's reach; the probe repeats one point per preset
        // directly, with the seed Sweep gives it, to attribute time.
        for (const NetworkCase& net : w_.networks) {
            bool ok = false;
            it.layers += simulate(net, w_.probeRate,
                                  sweepPointSeed(o_.seed, w_.probeRate),
                                  rec, top.id(), ok);
            ++it.runs;
            it.failed += ok ? 0 : 1;
        }
    }
    return it;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
};

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::vector<double>
collect(const std::vector<Iteration>& its, bool traced,
        double (*field)(const Iteration&))
{
    std::vector<double> v;
    for (const Iteration& it : its) {
        if (it.traced == traced)
            v.push_back(field(it));
    }
    return v;
}

/**
 * The timed calls with each piece at its fastest over the untraced
 * iterations, summed. Every iteration simulates the same seed, so piece
 * i is the same work in each; the host's fast spells need only cover
 * each piece once, not a whole iteration.
 */
double
fastestPieces(const std::vector<Iteration>& its)
{
    std::vector<double> best;
    for (const Iteration& it : its) {
        if (it.traced)
            continue;
        const std::vector<double>& c = it.pieceS;
        if (best.empty())
            best = c;
        for (std::size_t i = 0; i < std::min(best.size(), c.size()); ++i)
            best[i] = std::min(best[i], c[i]);
    }
    double sum = 0.0;
    for (const double s : best)
        sum += s;
    return sum;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<Metric>
endToEnd(const Setup& setup, const std::vector<Iteration>& its)
{
    const std::vector<double> run =
        collect(its, false, [](const Iteration& it) { return it.runS; });
    const double run_s = fastestPieces(its);
    return {
        {"setup_s", fastest(setup.construct), "s", setup.construct.size()},
        {"run_s", run_s, "s", run.size()},
        {"flits_per_s", static_cast<double>(its.front().flits) / run_s,
         "flits/s", run.size()},
        {"peak_rss_mb", peakRssMb(), "MB", 1},
    };
}

std::vector<Metric>
perLayer(const Setup& setup, const std::vector<Iteration>& its,
         unsigned jobs)
{
    using It = Iteration;
    std::vector<Metric> m;
    const auto traced = [&](double (*f)(const It&)) {
        const std::vector<double> v = collect(its, true, f);
        return std::make_pair(median(v), v.size());
    };
    const auto untraced = [&](double (*f)(const It&)) {
        const std::vector<double> v = collect(its, false, f);
        return std::make_pair(median(v), v.size());
    };
    const auto add = [&](const char* name,
                         std::pair<double, std::size_t> value,
                         const char* unit) {
        m.push_back({name, value.first, unit, value.second});
    };
    const auto exact = [&](const char* name, double value,
                           const char* unit) {
        m.push_back({name, value, unit, 1});
    };
    const It* first_traced = nullptr;
    const It* first_untraced = nullptr;
    for (const It& it : its) {
        if (it.traced && first_traced == nullptr)
            first_traced = &it;
        if (!it.traced && first_untraced == nullptr)
            first_untraced = &it;
    }
    const SimLayers& l = first_traced->layers;

    add("core.construct_s",
        {median(setup.construct), setup.construct.size()}, "s");
    add("core.run.warmup_s", traced([](const It& it) {
            return it.layers.warmupS;
        }), "s");
    add("core.run.measure_s", traced([](const It& it) {
            return it.layers.measureS;
        }), "s");
    add("core.run.drain_s", traced([](const It& it) {
            return it.layers.drainS;
        }), "s");
    exact("core.sweep.points", first_untraced->points, "count");
    exact("core.sweep.attempts", first_untraced->attempts, "count");
    std::vector<double> point_s;
    for (const It& it : its) {
        if (!it.traced)
            point_s.insert(point_s.end(), it.pointS.begin(),
                           it.pointS.end());
    }
    add("core.sweep.point_s.p50", {quantile(point_s, 0.5), point_s.size()},
        "s");
    add("core.sweep.point_s.p80", {quantile(point_s, 0.8), point_s.size()},
        "s");
    add("core.sweep.point_s.max", {quantile(point_s, 1.0), point_s.size()},
        "s");
    add("core.sweep.busy_s",
        untraced([](const It& it) { return it.busyS; }), "s");
    {
        std::vector<double> eff;
        for (const It& it : its) {
            if (!it.traced)
                eff.push_back(it.busyS / (jobs * it.runS));
        }
        add("core.sweep.efficiency", {median(eff), eff.size()}, "ratio");
    }

    add("power.build_models_s",
        {median(setup.buildModels), setup.buildModels.size()}, "s");
    std::uint64_t power_events = 0;
    for (unsigned t = 0; t < sim::kNumEventTypes; ++t) {
        if (!packetEvent(static_cast<sim::EventType>(t)))
            power_events += l.events[t];
    }
    exact("power.events_per_hop",
          static_cast<double>(power_events) / static_cast<double>(l.hops),
          "events/hop");
    add("power.replay_ns_per_event", traced([](const It& it) {
            return it.layers.replayS * 1e9 /
                   static_cast<double>(it.layers.replayEvents);
        }), "ns");
    add("power.replay_share", traced([](const It& it) {
            return it.layers.replayS / it.layers.measureS;
        }), "ratio");
    bool match = true;
    for (const It& it : its)
        match = match && (!it.traced || it.layers.replayMatch);
    exact("power.replay_match", match ? 1.0 : 0.0, "bool");

    exact("sim.cycles", static_cast<double>(first_untraced->cycles),
          "cycles");
    add("sim.ns_per_cycle", untraced([](const It& it) {
            return it.runS * 1e9 / static_cast<double>(it.cycles);
        }), "ns");
    for (unsigned t = 0; t < sim::kNumEventTypes; ++t) {
        m.push_back({std::string("sim.events.") +
                         sim::eventTypeName(static_cast<sim::EventType>(t)),
                     static_cast<double>(l.events[t]), "count", 1});
    }
    static const char* const kPhaseNames[4] = {
        "sim.phase.router_advance_share", "sim.phase.channel_advance_share",
        "sim.phase.audit_share", "sim.phase.periodic_share"};
    for (unsigned p = 0; p < 4; ++p) {
        std::vector<double> share;
        for (const It& it : its) {
            if (!it.traced)
                continue;
            double total = 0.0;
            for (const double s : it.layers.phaseS)
                total += s;
            share.push_back(total > 0.0 ? it.layers.phaseS[p] / total : 0.0);
        }
        add(kPhaseNames[p], {median(share), share.size()}, "ratio");
    }

    exact("router.flit_hops", static_cast<double>(l.hops), "count");
    add("router.ns_per_hop", traced([](const It& it) {
            return it.layers.routerS * 1e9 /
                   static_cast<double>(it.layers.hops);
        }), "ns");

    add("net.build_s", {median(setup.network), setup.network.size()}, "s");
    exact("net.flits_ejected", static_cast<double>(first_untraced->flits),
          "count");
    exact("net.packets_ejected",
          static_cast<double>(first_untraced->packets), "count");

    const auto untraced_run = untraced([](const It& it) { return it.runS; });
    const auto traced_run = traced([](const It& it) { return it.runS; });
    const double overhead = traced_run.first - untraced_run.first;
    add("trace.overhead_s", {overhead, traced_run.second}, "s");
    add("trace.overhead_share",
        {overhead / untraced_run.first, traced_run.second}, "ratio");
    return m;
}

std::string
buildJson()
{
    const core::BuildInfo& b = core::buildInfo();
    return "{\"git_sha\": " + jsonQuote(b.gitSha) +
           ", \"compiler\": " + jsonQuote(b.compiler) +
           ", \"build_type\": " + jsonQuote(b.buildType) +
           ", \"flags\": " + jsonQuote(b.flags) + "}";
}

bool
writeFile(const std::string& path, const std::string& text)
{
    std::ofstream out(path);
    out << text;
    return static_cast<bool>(out);
}

int
usage(const char* why)
{
    std::string names;
    for (const std::string& n : workloadNames())
        names += " " + n;
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--reference DIR] [--out DIR] "
                 "[--record-reference]\nworkloads:%s\n",
                 why, names.c_str());
    return 2;
}

bool
parse(int argc, char** argv, Options& o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--record-reference") {
            o.record = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string val = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            o.workload = val;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (!(o.seconds > 0.0))
                return false;
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                return false;
            o.trace = val == "1";
        } else if (arg == "--reference") {
            o.referenceDir = val;
        } else if (arg == "--out") {
            o.outDir = val;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    if (!parse(argc, argv, o))
        return usage("bad arguments");
    const Workload* w = findWorkload(o.workload);
    if (w == nullptr)
        return usage("unknown workload");
    // Fold the seed into the recorded range, so that every run of every
    // seed is checked against a stored reference.
    const std::uint64_t given_seed = o.seed;
    o.seed %= kReferenceSeeds;
    Bench bench(*w, o);

    if (o.record) {
        const Iteration it = bench.iterate(nullptr);
        for (const auto& [cas, d] : bench.checker().digests()) {
            std::printf("%" PRIu64 " %s %s\n", o.seed, cas.c_str(),
                        d.format().c_str());
        }
        return it.failed == 0 ? 0 : 1;
    }

    SpanRecorder spans;
    SpanRecorder* rec = o.trace ? &spans : nullptr;
    Setup setup;
    bench.measureSetup(rec, 0.0, kMinSetupRounds, setup);

    // Closed loop: iterations back to back until --seconds have passed
    // (and a few iterations of each kind exist). A traced run
    // alternates untraced and traced iterations, so both see the same
    // host conditions and their difference is the tracing overhead.
    std::vector<Iteration> its;
    unsigned untraced = 0, traced = 0;
    const double start = nowSeconds();
    for (;;) {
        const bool trace_this = o.trace && untraced > traced;
        its.push_back(bench.iterate(trace_this ? rec : nullptr));
        ++(trace_this ? traced : untraced);
        bench.measureSetup(rec, kSetupShare * its.back().runS, 1, setup);
        if (nowSeconds() - start >= o.seconds &&
            untraced >= (o.trace ? 2 : kMinIterations) &&
            traced >= (o.trace ? 2 : 0))
            break;
    }

    unsigned runs = 0, failed = 0;
    for (const Iteration& it : its) {
        runs += it.runs;
        failed += it.failed;
    }
    const std::vector<Metric> metrics =
        o.trace ? perLayer(setup, its, bench.jobs())
                : endToEnd(setup, its);

    const core::BuildInfo& b = core::buildInfo();
    std::printf("perfbench %s: seed %" PRIu64 " (simulated seed %" PRIu64
                "), %.3g s, trace %d, jobs %u, nproc %u\n",
                w->name.c_str(), given_seed, o.seed, o.seconds,
                o.trace ? 1 : 0, bench.jobs(), availableCpus());
    std::printf("build: %s, %s, %s\n", b.gitSha, b.compiler, b.buildType);
    std::printf("digests: %016" PRIx64 "\n", bench.checker().fingerprint());
    for (const Metric& m : metrics) {
        std::printf("  %-34s %-22s %-10s n=%zu\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str(), m.samples);
    }
    std::printf("runs %u failed_runs %u\n", runs, failed);

    if (o.trace) {
        std::error_code ec;
        std::filesystem::create_directories(o.outDir, ec);
        std::ostringstream trace;
        spans.writeChromeTrace(trace, w->name + " seed " +
                                          std::to_string(given_seed));
        std::ostringstream layers;
        layers << "{\"workload\": " << jsonQuote(w->name)
               << ", \"seed\": " << given_seed
               << ", \"simulated_seed\": " << o.seed << ", \"seconds\": "
               << number(o.seconds) << ", \"jobs\": " << bench.jobs()
               << ", \"nproc\": " << availableCpus()
               << ", \"build\": " << buildJson() << ", \"runs\": " << runs
               << ", \"failed_runs\": " << failed << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const Metric& m = metrics[i];
            layers << (i ? ", " : "") << jsonQuote(m.name)
                   << ": {\"value\": " << number(m.value)
                   << ", \"unit\": " << jsonQuote(m.unit)
                   << ", \"samples\": " << m.samples << "}";
        }
        layers << "}}\n";
        const std::string base = o.outDir + "/" + w->name;
        if (!writeFile(base + ".trace.json", trace.str()) ||
            !writeFile(base + ".layers.json", layers.str())) {
            std::fprintf(stderr, "perfbench: cannot write %s.*.json\n",
                         base.c_str());
            return 1;
        }
        std::printf("wrote %s.trace.json and %s.layers.json\n",
                    base.c_str(), base.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false", runs, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s%s: {\"value\": %s, \"unit\": %s}", i ? ", " : "",
                    jsonQuote(metrics[i].name).c_str(),
                    number(metrics[i].value).c_str(),
                    jsonQuote(metrics[i].unit).c_str());
    }
    std::printf("}}\n");
    return 0;
}
