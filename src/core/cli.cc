#include "core/cli.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/report.hh"
#include "core/sweep.hh"
#include "net/trace.hh"

namespace orion::cli {

namespace {

[[noreturn]] void
fail(const std::string& what)
{
    throw std::invalid_argument(what);
}

} // namespace

unsigned long long
parseU64(const std::string& opt, const std::string& v,
         unsigned long long max)
{
    // stoull silently wraps negative inputs; reject them explicitly.
    if (v.find('-') != std::string::npos)
        fail(opt + ": must be non-negative: '" + v + "'");
    std::size_t used = 0;
    unsigned long long n = 0;
    try {
        n = std::stoull(v, &used);
    } catch (const std::out_of_range&) {
        fail(opt + ": out of range: '" + v + "'");
    } catch (const std::invalid_argument&) {
        fail(opt + ": not a number: '" + v + "'");
    }
    if (used != v.size())
        fail(opt + ": not a number: '" + v + "'");
    if (n > max)
        fail(opt + ": out of range: '" + v + "'");
    return n;
}

double
parseDouble(const std::string& opt, const std::string& v)
{
    std::size_t used = 0;
    double d = 0.0;
    try {
        d = std::stod(v, &used);
    } catch (const std::out_of_range&) {
        fail(opt + ": out of range: '" + v + "'");
    } catch (const std::invalid_argument&) {
        fail(opt + ": not a number: '" + v + "'");
    }
    if (used != v.size())
        fail(opt + ": not a number: '" + v + "'");
    if (!std::isfinite(d))
        fail(opt + ": not a finite number: '" + v + "'");
    return d;
}

namespace {

std::vector<unsigned>
parseDims(const std::string& v)
{
    std::vector<unsigned> dims;
    std::string part;
    std::istringstream in(v);
    while (std::getline(in, part, 'x')) {
        if (part.empty())
            fail("--dims: malformed '" + v + "'");
        dims.push_back(
            static_cast<unsigned>(parseU64("--dims", part, UINT_MAX)));
    }
    if (dims.empty())
        fail("--dims: malformed '" + v + "'");
    return dims;
}

NetworkConfig
presetByName(const std::string& name)
{
    if (name == "wh64")
        return NetworkConfig::wh64();
    if (name == "vc16")
        return NetworkConfig::vc16();
    if (name == "vc64")
        return NetworkConfig::vc64();
    if (name == "vc128")
        return NetworkConfig::vc128();
    if (name == "xb")
        return NetworkConfig::xb();
    if (name == "cb")
        return NetworkConfig::cb();
    fail("--preset: unknown preset '" + name + "'");
}

net::TrafficPattern
patternByName(const std::string& name)
{
    if (name == "uniform")
        return net::TrafficPattern::UniformRandom;
    if (name == "broadcast")
        return net::TrafficPattern::Broadcast;
    if (name == "transpose")
        return net::TrafficPattern::Transpose;
    if (name == "bitcomp")
        return net::TrafficPattern::BitComplement;
    if (name == "tornado")
        return net::TrafficPattern::Tornado;
    if (name == "neighbor")
        return net::TrafficPattern::NearestNeighbor;
    if (name == "hotspot")
        return net::TrafficPattern::Hotspot;
    if (name == "trace")
        return net::TrafficPattern::Trace;
    fail("--pattern: unknown pattern '" + name + "'");
}

router::DeadlockMode
deadlockByName(const std::string& name)
{
    if (name == "none")
        return router::DeadlockMode::None;
    if (name == "bubble")
        return router::DeadlockMode::Bubble;
    if (name == "dateline")
        return router::DeadlockMode::Dateline;
    fail("--deadlock: unknown mode '" + name + "'");
}

net::OutageWindow
parseOutageSpec(const std::string& spec)
{
    net::OutageWindow w;
    unsigned long long start = 0;
    unsigned long long end = 0;
    long long link = -1;
    char tail = 0;
    const int n3 = std::sscanf(spec.c_str(), "%llu:%llu:%lld%c",
                               &start, &end, &link, &tail);
    if (n3 != 3) {
        link = -1;
        const int n2 = std::sscanf(spec.c_str(), "%llu:%llu%c",
                                   &start, &end, &tail);
        if (n2 != 2)
            fail("--link-outage: wants START:END[:LINK]: '" + spec +
                 "'");
    }
    if (end <= start)
        fail("--link-outage: window end must be after start: '" +
             spec + "'");
    if (link < -1)
        fail("--link-outage: link must be >= 0 (or omitted): '" +
             spec + "'");
    w.start = start;
    w.end = end;
    w.link = static_cast<int>(link);
    return w;
}

Options
parseOptions(const std::vector<std::string>& args)
{
    Options o;
    o.traffic.injectionRate = 0.05;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& a = args[i];
        const auto value = [&]() -> const std::string& {
            if (i + 1 >= args.size())
                fail(a + ": missing value");
            return args[++i];
        };

        if (a == "--help" || a == "-h") {
            o.helpRequested = true;
            return o;
        } else if (a == "--preset") {
            o.network = presetByName(value());
        } else if (a == "--dims") {
            o.network.net.dims = parseDims(value());
        } else if (a == "--mesh") {
            o.network.net.wrap = false;
            o.network.net.deadlock = router::DeadlockMode::None;
        } else if (a == "--vcs") {
            o.network.net.vcs =
                static_cast<unsigned>(parseU64(a, value(), UINT_MAX));
        } else if (a == "--buffer") {
            o.network.net.bufferDepth =
                static_cast<unsigned>(parseU64(a, value(), UINT_MAX));
        } else if (a == "--flit-bits") {
            o.network.net.flitBits =
                static_cast<unsigned>(parseU64(a, value(), UINT_MAX));
        } else if (a == "--packet-length") {
            o.network.net.packetLength =
                static_cast<unsigned>(parseU64(a, value(), UINT_MAX));
        } else if (a == "--deadlock") {
            o.network.net.deadlock = deadlockByName(value());
        } else if (a == "--speculative") {
            o.network.net.speculative = true;
        } else if (a == "--arbiter") {
            const std::string& v = value();
            if (v == "matrix")
                o.network.net.arbiterKind = router::ArbiterKind::Matrix;
            else if (v == "rr")
                o.network.net.arbiterKind =
                    router::ArbiterKind::RoundRobin;
            else if (v == "queuing")
                o.network.net.arbiterKind =
                    router::ArbiterKind::Queuing;
            else
                fail("--arbiter: unknown kind '" + v + "'");
        } else if (a == "--injection") {
            const std::string& v = value();
            if (v == "single")
                o.network.net.injection =
                    net::InjectionPolicy::SingleVc;
            else if (v == "spread")
                o.network.net.injection =
                    net::InjectionPolicy::SpreadVcs;
            else
                fail("--injection: unknown policy '" + v + "'");
        } else if (a == "--tie-break") {
            const std::string& v = value();
            if (v == "random")
                o.network.net.tieBreak = net::TieBreak::Random;
            else if (v == "prefer-wrap")
                o.network.net.tieBreak = net::TieBreak::PreferWrap;
            else
                fail("--tie-break: unknown policy '" + v + "'");
        } else if (a == "--pattern") {
            o.traffic.pattern = patternByName(value());
        } else if (a == "--rate") {
            o.traffic.injectionRate = parseDouble(a, value());
        } else if (a == "--broadcast-source") {
            o.traffic.broadcastSource =
                static_cast<int>(parseU64(a, value(), INT_MAX));
        } else if (a == "--hotspot") {
            o.traffic.hotspotNode =
                static_cast<int>(parseU64(a, value(), INT_MAX));
        } else if (a == "--hotspot-frac") {
            o.traffic.hotspotFraction = parseDouble(a, value());
        } else if (a == "--trace") {
            o.traffic.trace = std::make_shared<
                const std::vector<net::TraceRecord>>(
                net::Trace::load(value()));
        } else if (a == "--sample") {
            o.sim.samplePackets = parseU64(a, value());
        } else if (a == "--warmup") {
            o.sim.warmupCycles = parseU64(a, value());
        } else if (a == "--max-cycles") {
            o.sim.maxCycles = parseU64(a, value());
        } else if (a == "--seed") {
            o.sim.seed = parseU64(a, value());
        } else if (a == "--link-ber") {
            const double ber = parseDouble(a, value());
            if (ber < 0.0 || ber > 1.0)
                fail("--link-ber: must be in [0, 1]");
            o.sim.fault.linkBitErrorRate = ber;
        } else if (a == "--link-outage") {
            o.sim.fault.outages.push_back(parseOutageSpec(value()));
        } else if (a == "--fault-seed") {
            o.sim.fault.faultSeed = parseU64(a, value());
        } else if (a == "--retry-limit") {
            const unsigned long long n = parseU64(a, value());
            if (n > 32)
                fail("--retry-limit: must be <= 32");
            o.sim.fault.retryLimit = static_cast<unsigned>(n);
        } else if (a == "--retry-backoff") {
            const unsigned long long n = parseU64(a, value());
            if (n < 1)
                fail("--retry-backoff: must be >= 1");
            o.sim.fault.retryBackoffCycles =
                static_cast<sim::Cycle>(n);
        } else if (a == "--reroute") {
            o.sim.rerouteOnOutage = true;
        } else if (a == "--deadlock-detect") {
            const unsigned long long n = parseU64(a, value());
            if (n < 1)
                fail("--deadlock-detect: must be >= 1");
            o.sim.deadlockDetect.enabled = true;
            o.sim.deadlockDetect.thresholdCycles =
                static_cast<sim::Cycle>(n);
            o.sim.deadlockDetect.probeCycles = std::max<sim::Cycle>(
                1, std::min<sim::Cycle>(128, n / 4));
        } else if (a == "--debug-poison-rate") {
            o.sim.debugPoisonRate = parseDouble(a, value());
        } else if (a == "--debug-segv-rate") {
            o.sim.debugSegvRate = parseDouble(a, value());
        } else if (a == "--point-timeout") {
            const double sec = parseDouble(a, value());
            if (sec <= 0.0)
                fail("--point-timeout: must be > 0 seconds");
            o.pointTimeoutSeconds = sec;
        } else if (a == "--point-retries") {
            const unsigned long long n = parseU64(a, value());
            if (n < 1 || n > 32)
                fail("--point-retries: must be in [1, 32]");
            o.pointRetries = static_cast<unsigned>(n);
        } else if (a == "--point-backoff-ms") {
            o.pointBackoffMs =
                static_cast<unsigned>(parseU64(a, value(), UINT_MAX));
        } else if (a == "--report-out") {
            o.reportOut = value();
        } else if (a == "--log-out") {
            o.logOut = value();
        } else if (a == "--log-level") {
            const std::string& v = value();
            if (v != "debug" && v != "info" && v != "warn" &&
                v != "error") {
                fail("--log-level: wants debug|info|warn|error: '" +
                     v + "'");
            }
            o.logLevel = v;
        } else if (a == "--manifest-out") {
            o.manifestOut = value();
        } else if (a == "--profile-phases") {
            o.sim.profilePhases = true;
        } else if (a == "--jobs") {
            const unsigned long long n = parseU64(a, value(), UINT_MAX);
            if (n < 1)
                fail("--jobs: must be >= 1");
            o.jobs = static_cast<unsigned>(n);
        } else if (a == "--csv") {
            o.csv = true;
        } else if (a == "--breakdown") {
            o.breakdown = true;
        } else if (a == "--metrics-out") {
            o.metricsOut = value();
        } else if (a == "--trace-out") {
            o.traceOut = value();
        } else if (a == "--sample-interval") {
            const unsigned long long n = parseU64(a, value());
            if (n < 1)
                fail("--sample-interval: must be >= 1");
            o.sim.telemetry.sampleInterval =
                static_cast<sim::Cycle>(n);
        } else if (a == "--trace-capacity") {
            const unsigned long long n = parseU64(a, value());
            if (n < 1)
                fail("--trace-capacity: must be >= 1");
            o.sim.telemetry.traceCapacity =
                static_cast<std::size_t>(n);
        } else {
            fail("unknown option '" + a + "'");
        }
    }

    // --metrics-out without an explicit interval samples every 1000
    // cycles; --trace-out enables the tracer.
    if (!o.metricsOut.empty() && o.sim.telemetry.sampleInterval == 0)
        o.sim.telemetry.sampleInterval = 1000;
    if (!o.traceOut.empty())
        o.sim.telemetry.traceEnabled = true;

    // Cross-field checks happen in the library validators; run them
    // here so errors surface before the (possibly long) run starts.
    validateConfig(o.network, o.traffic, o.sim);
    return o;
}

} // namespace

Options
parse(const std::vector<std::string>& args, const std::string& tool)
{
    try {
        return parseOptions(args);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(tool + ": " + e.what() +
                                    " (--help for usage)");
    }
}

std::vector<double>
parseRateSpec(const std::string& spec)
{
    const auto bad = [&spec] {
        fail("--rates: wants FIRST:LAST:COUNT with 0 < FIRST <= LAST "
             "<= 1 and 2 <= COUNT <= " +
             std::to_string(kMaxSweepCells) + ": '" + spec + "'");
    };
    const std::size_t a = spec.find(':');
    const std::size_t b = a == std::string::npos ? a : spec.find(':', a + 1);
    if (b == std::string::npos)
        bad();
    const double first = parseDouble("--rates FIRST", spec.substr(0, a));
    const double last =
        parseDouble("--rates LAST", spec.substr(a + 1, b - a - 1));
    const auto count =
        parseU64("--rates COUNT", spec.substr(b + 1), kMaxSweepCells);
    if (!(first > 0.0 && first <= last && last <= 1.0) || count < 2)
        bad();
    return Sweep::linspace(first, last, static_cast<unsigned>(count));
}

std::string
usage()
{
    return "usage: orion_sim [options]\n"
           "\n"
           "network (defaults to --preset vc16):\n"
           "  --preset wh64|vc16|vc64|vc128|xb|cb   paper presets\n"
           "  --dims KxK[xK]       topology radices (default 4x4)\n"
           "  --mesh               mesh instead of torus\n"
           "  --vcs N              virtual channels per port\n"
           "  --buffer N           buffer depth per VC (flits)\n"
           "  --flit-bits N        flit width\n"
           "  --packet-length N    flits per packet\n"
           "  --deadlock none|bubble|dateline\n"
           "  --speculative        2-stage speculative VC pipeline\n"
           "  --arbiter matrix|rr|queuing\n"
           "  --injection single|spread   source VC policy\n"
           "  --tie-break random|prefer-wrap\n"
           "\n"
           "workload:\n"
           "  --pattern uniform|broadcast|transpose|bitcomp|tornado|"
           "neighbor|hotspot|trace\n"
           "  --rate R             packets/cycle/node (default 0.05)\n"
           "  --broadcast-source N --hotspot N --hotspot-frac F\n"
           "  --trace FILE         trace file ('cycle src dst' lines)\n"
           "\n"
           "measurement (paper defaults):\n"
           "  --sample N           sample packets (default 10000)\n"
           "  --warmup N           warm-up cycles (default 1000)\n"
           "  --max-cycles N       cycle cap (default 1000000)\n"
           "  --seed N             RNG seed (default 1)\n"
           "\n"
           "fault injection (defaults: disabled):\n"
           "  --link-ber F         per-bit link error rate in [0,1]\n"
           "  --link-outage START:END[:LINK]\n"
           "                       drop all flits on LINK (random link\n"
           "                       if omitted) during [START, END)\n"
           "  --fault-seed N       fault schedule seed (default:\n"
           "                       derived from --seed)\n"
           "  --retry-limit N      retransmissions per packet "
           "(default 8)\n"
           "  --retry-backoff N    base retry backoff cycles "
           "(default 8)\n"
           "\n"
           "robustness (defaults: disabled; docs/ROBUSTNESS.md):\n"
           "  --reroute            reroute sources around dead links\n"
           "                       (fail fast as 'unreachable' when a\n"
           "                       destination is partitioned)\n"
           "  --deadlock-detect N  detect wait-for cycles after N\n"
           "                       frozen cycles and recover by worm\n"
           "                       poisoning + retransmission\n"
           "\n"
           "execution:\n"
           "  --jobs N             sweep worker threads (default: "
           "hardware\n"
           "                       concurrency; results identical for "
           "any N)\n"
           "\n"
           "survivability (defaults: disabled; docs/ROBUSTNESS.md):\n"
           "  --point-timeout SEC  wall-clock deadline per run / sweep\n"
           "                       point; overruns stop cooperatively\n"
           "                       as status 'deadline'\n"
           "  --point-retries N    attempts per sweep cell before it\n"
           "                       fails for good (default 2)\n"
           "  --point-backoff-ms N sleep before each retry (default 0)\n"
           "\n"
           "output:\n"
           "  --csv                machine-readable one-row CSV\n"
           "  --breakdown          per-node power map + event counts\n"
           "  --report-out FILE    machine-mergeable report line (exact\n"
           "                       hexfloat doubles; the checkpoint\n"
           "                       entry format)\n"
           "\n"
           "telemetry (defaults: disabled; see docs/OBSERVABILITY.md):\n"
           "  --metrics-out FILE   windowed metric time series (CSV)\n"
           "  --sample-interval N  cycles per sampling window (default\n"
           "                       1000 when --metrics-out is set)\n"
           "  --trace-out FILE     Chrome trace-event JSON (load in\n"
           "                       Perfetto / chrome://tracing)\n"
           "  --trace-capacity N   trace ring-buffer records "
           "(default 65536)\n"
           "\n"
           "observability (defaults: disabled; docs/OBSERVABILITY.md):\n"
           "  --log-out FILE       structured JSON-lines log (also via\n"
           "                       the ORION_LOG environment variable)\n"
           "  --log-level L        debug|info|warn|error (default "
           "info)\n"
           "  --manifest-out FILE  run manifest JSON (config\n"
           "                       fingerprint, build info, rusage,\n"
           "                       stop reason)\n"
           "  --profile-phases     attribute kernel time to simulator\n"
           "                       stages (reported in the manifest)\n";
}

std::string
formatReport(const Options& opts, const Report& r)
{
    std::ostringstream out;
    out << "orion_sim run summary\n";
    out << "  status            : " << stopReasonName(r.stopReason)
        << "\n";
    if (r.stopReason == StopReason::CheckFailure &&
        !r.checkFailureDiagnostic.empty()) {
        out << "  diagnostic        : " << r.checkFailureDiagnostic
            << "\n";
    }
    out << "  cycles            : " << r.totalCycles << " ("
        << r.measuredCycles << " measured)\n";
    out << "  sample packets    : " << r.sampleEjected << "/"
        << r.sampleInjected << "\n";
    out << "  offered load      : " << report::fmt(r.offeredLoad, 4)
        << " pkts/cycle/node\n";
    out << "  throughput        : "
        << report::fmt(r.acceptedFlitsPerNodePerCycle, 4)
        << " flits/node/cycle\n";
    out << "  latency mean      : "
        << report::fmt(r.avgLatencyCycles, 2) << " cycles\n";
    out << "  latency p50/95/99 : "
        << report::fmt(r.p50LatencyCycles, 0) << " / "
        << report::fmt(r.p95LatencyCycles, 0) << " / "
        << report::fmt(r.p99LatencyCycles, 0) << " cycles\n";
    out << "  network power     : "
        << report::fmt(r.networkPowerWatts, 3) << " W\n";
    out << "    buffers         : "
        << report::fmt(r.breakdownWatts.buffer, 3) << " W\n";
    out << "    crossbars       : "
        << report::fmt(r.breakdownWatts.crossbar, 3) << " W\n";
    out << "    arbiters        : "
        << report::fmt(r.breakdownWatts.arbiter, 4) << " W\n";
    out << "    central buffers : "
        << report::fmt(r.breakdownWatts.centralBuffer, 3) << " W\n";
    out << "    links           : "
        << report::fmt(r.breakdownWatts.link, 3) << " W\n";

    if (r.flitsCorrupted + r.flitsOutageDropped + r.flitsDiscarded +
            r.packetsRetransmitted + r.packetsLost >
        0) {
        out << "  faults            : " << r.flitsCorrupted
            << " corrupted, " << r.flitsOutageDropped
            << " outage-dropped, " << r.flitsDiscarded
            << " discarded flits\n";
        out << "  recovery          : " << r.packetsRetransmitted
            << " retransmitted, " << r.packetsLost
            << " lost packets\n";
    }
    if (r.reroutes + r.packetsUnreachable > 0) {
        out << "  rerouting         : " << r.reroutes
            << " detours, " << r.packetsUnreachable
            << " unreachable packets\n";
    }
    if (r.deadlocksDetected > 0) {
        out << "  deadlocks         : " << r.deadlocksDetected
            << " detected, " << r.deadlocksRecovered
            << " recovered\n";
    }

    if (opts.breakdown) {
        const auto& dims = opts.network.net.dims;
        if (dims.size() == 2) {
            report::Table map;
            map.title = "per-node power (W)";
            map.headers = {"y\\x"};
            for (unsigned x = 0; x < dims[0]; ++x)
                map.headers.push_back(std::to_string(x));
            for (unsigned yy = dims[1]; yy-- > 0;) {
                std::vector<std::string> row{std::to_string(yy)};
                for (unsigned x = 0; x < dims[0]; ++x) {
                    row.push_back(report::fmt(
                        r.nodePowerWatts[yy * dims[0] + x], 3));
                }
                map.addRow(std::move(row));
            }
            out << report::formatTable(map);
        }

        report::Table ev;
        ev.title = "event counts (measurement window)";
        ev.headers = {"event", "count"};
        for (unsigned t = 0; t < sim::kNumEventTypes; ++t) {
            ev.addRow({sim::eventTypeName(
                           static_cast<sim::EventType>(t)),
                       std::to_string(r.eventCounts[t])});
        }
        out << report::formatTable(ev);
    }
    return out.str();
}

std::string
formatCsvReport(const Options& opts, const Report& r)
{
    // New columns append at the end so the historical header prefix
    // (and existing column positions) stay stable for downstream
    // scripts.
    report::Table t;
    t.headers = {"rate",          "completed",  "deadlock",
                 "cycles",        "latency",    "p50",
                 "p95",           "p99",        "throughput",
                 "power_w",       "buffer_w",   "crossbar_w",
                 "arbiter_w",     "cbuffer_w",  "link_w",
                 "stop_reason",   "flits_corrupted",
                 "packets_retransmitted",      "packets_lost",
                 "packets_unreachable",        "reroutes",
                 "deadlocks_recovered"};
    t.addRow({
        report::fmt(opts.traffic.injectionRate, 4),
        r.completed ? "1" : "0",
        r.deadlockSuspected ? "1" : "0",
        std::to_string(r.measuredCycles),
        report::fmt(r.avgLatencyCycles, 3),
        report::fmt(r.p50LatencyCycles, 0),
        report::fmt(r.p95LatencyCycles, 0),
        report::fmt(r.p99LatencyCycles, 0),
        report::fmt(r.acceptedFlitsPerNodePerCycle, 4),
        report::fmt(r.networkPowerWatts, 4),
        report::fmt(r.breakdownWatts.buffer, 4),
        report::fmt(r.breakdownWatts.crossbar, 4),
        report::fmt(r.breakdownWatts.arbiter, 5),
        report::fmt(r.breakdownWatts.centralBuffer, 4),
        report::fmt(r.breakdownWatts.link, 4),
        stopReasonName(r.stopReason),
        std::to_string(r.flitsCorrupted),
        std::to_string(r.packetsRetransmitted),
        std::to_string(r.packetsLost),
        std::to_string(r.packetsUnreachable),
        std::to_string(r.reroutes),
        std::to_string(r.deadlocksRecovered),
    });
    return report::formatCsv(t);
}

} // namespace orion::cli
