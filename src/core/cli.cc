#include "core/cli.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/log.hh"
#include "core/report.hh"
#include "net/trace.hh"

namespace orion::cli {

namespace {

namespace log = core::log;

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

/** One flag's value as its setter sees it; the checks name the flag
 * in their messages. A switch sees an empty text. */
struct Value
{
    const std::string& flag;
    const std::string& text;
    /** The flag's placeholder; "a|b|c" lists the accepted values. */
    const char* placeholder;

    [[noreturn]] void
    reject(const std::string& why) const
    {
        fail(flag + ": " + why);
    }

    unsigned long long
    u64(unsigned long long max = ULLONG_MAX) const
    {
        return parseU64(flag, text, max);
    }

    unsigned u32() const { return static_cast<unsigned>(u64(UINT_MAX)); }
    int node() const { return static_cast<int>(u64(INT_MAX)); } ///< an id

    /** An integer >= 1. */
    unsigned long long
    positive(unsigned long long max = ULLONG_MAX) const
    {
        const unsigned long long n = u64(max);
        if (n < 1)
            reject("must be >= 1");
        return n;
    }

    double number() const { return parseDouble(flag, text); }

    /** The text's position among the placeholder's choices. */
    std::size_t
    choice(const char* what) const
    {
        std::istringstream choices(placeholder);
        std::string name;
        for (std::size_t i = 0; std::getline(choices, name, '|'); ++i) {
            if (name == text)
                return i;
        }
        reject(std::string("unknown ") + what + " '" + text + "'");
    }
};

// Which tools take a flag (Flag::tools).
constexpr unsigned kSim = 1;
constexpr unsigned kSweep = 2;
constexpr unsigned kBoth = kSim | kSweep;
constexpr unsigned kForwarded = 4;
/** Both tools take it, and `orion_sweep --isolate` hands it to each
 * worker (workerArgs): it describes the simulated cell. */
constexpr unsigned kCell = kBoth | kForwarded;

/** One command-line flag: everything parse(), usage() and
 * workerArgs() know about it. */
struct Flag
{
    const char* name;
    const char* placeholder; ///< of its value; nullptr for a switch
    const char* group;       ///< the --help section that lists it
    std::string help;
    unsigned tools;
    void (*set)(Options&, Value);
};

const char kNetwork[] = "network (defaults to --preset vc16)";
const char kWorkload[] = "workload";
const char kMeasurement[] = "measurement (paper defaults)";
const char kFaults[] = "fault injection (defaults: disabled)";
const char kRobustness[] =
    "robustness (defaults: disabled; docs/ROBUSTNESS.md)";
const char kDrills[] = "test drills (defaults: disabled)";
const char kExecution[] = "execution";
const char kSurvivability[] =
    "survivability (defaults: disabled; docs/ROBUSTNESS.md)";
const char kOutput[] = "output";
const char kTelemetry[] =
    "telemetry (defaults: disabled; docs/OBSERVABILITY.md)";
const char kObservability[] =
    "observability (defaults: disabled; docs/OBSERVABILITY.md)";

/** Every flag of both tools, in --help order (a group's flags
 * together). */
const Flag kFlags[] = {
    {"--preset", "wh64|vc16|vc64|vc128|xb|cb", kNetwork, "paper presets",
     kCell, [](Options& o, Value v) {
         NetworkConfig (*const presets[])() = {
             NetworkConfig::wh64, NetworkConfig::vc16, NetworkConfig::vc64,
             NetworkConfig::vc128, NetworkConfig::xb, NetworkConfig::cb};
         o.network = presets[v.choice("preset")]();
     }},
    {"--dims", "KxK[xK]", kNetwork, "topology radices (default 4x4)", kCell,
     [](Options& o, Value v) { o.network.net.dims = parseDims(v.text); }},
    {"--mesh", nullptr, kNetwork, "mesh instead of torus", kCell,
     [](Options& o, Value) {
         o.network.net.wrap = false;
         o.network.net.deadlock = router::DeadlockMode::None;
     }},
    {"--vcs", "N", kNetwork, "virtual channels per port", kCell,
     [](Options& o, Value v) { o.network.net.vcs = v.u32(); }},
    {"--buffer", "N", kNetwork, "buffer depth per VC (flits)", kCell,
     [](Options& o, Value v) { o.network.net.bufferDepth = v.u32(); }},
    {"--flit-bits", "N", kNetwork, "flit width", kCell,
     [](Options& o, Value v) { o.network.net.flitBits = v.u32(); }},
    {"--packet-length", "N", kNetwork, "flits per packet", kCell,
     [](Options& o, Value v) { o.network.net.packetLength = v.u32(); }},
    {"--deadlock", "none|bubble|dateline", kNetwork,
     "deadlock avoidance on rings", kCell, [](Options& o, Value v) {
         using router::DeadlockMode;
         const DeadlockMode modes[] = {
             DeadlockMode::None, DeadlockMode::Bubble, DeadlockMode::Dateline};
         o.network.net.deadlock = modes[v.choice("mode")];
     }},
    {"--speculative", nullptr, kNetwork, "2-stage speculative VC pipeline",
     kCell, [](Options& o, Value) { o.network.net.speculative = true; }},
    {"--arbiter", "matrix|rr|queuing", kNetwork, "arbiter kind", kCell,
     [](Options& o, Value v) {
         using router::ArbiterKind;
         const ArbiterKind kinds[] = {ArbiterKind::Matrix,
                                      ArbiterKind::RoundRobin,
                                      ArbiterKind::Queuing};
         o.network.net.arbiterKind = kinds[v.choice("kind")];
     }},
    {"--injection", "single|spread", kNetwork, "source VC policy", kCell,
     [](Options& o, Value v) {
         using net::InjectionPolicy;
         const InjectionPolicy policies[] = {InjectionPolicy::SingleVc,
                                             InjectionPolicy::SpreadVcs};
         o.network.net.injection = policies[v.choice("policy")];
     }},
    {"--tie-break", "random|prefer-wrap", kNetwork,
     "direction of half-way ring ties", kCell, [](Options& o, Value v) {
         using net::TieBreak;
         const TieBreak policies[] = {TieBreak::Random, TieBreak::PreferWrap};
         o.network.net.tieBreak = policies[v.choice("policy")];
     }},

    {"--pattern",
     "uniform|broadcast|transpose|bitcomp|tornado|neighbor|hotspot|trace",
     kWorkload, "traffic pattern (default uniform)", kCell,
     [](Options& o, Value v) {
         using P = net::TrafficPattern;
         const P patterns[] = {P::UniformRandom, P::Broadcast, P::Transpose,
                               P::BitComplement, P::Tornado,
                               P::NearestNeighbor, P::Hotspot, P::Trace};
         o.traffic.pattern = patterns[v.choice("pattern")];
     }},
    {"--rate", "R", kWorkload, "packets/cycle/node (default 0.05)", kSim,
     [](Options& o, Value v) { o.traffic.injectionRate = v.number(); }},
    {"--rates", "FIRST:LAST:COUNT", kWorkload,
     "evenly spaced rates (default 0.01:0.20:10)", kSweep,
     [](Options& o, Value v) { o.rates = parseRateSpec(v.text); }},
    {"--broadcast-source", "N", kWorkload, "broadcast source node", kCell,
     [](Options& o, Value v) { o.traffic.broadcastSource = v.node(); }},
    {"--hotspot", "N", kWorkload, "hotspot node", kCell,
     [](Options& o, Value v) { o.traffic.hotspotNode = v.node(); }},
    {"--hotspot-frac", "F", kWorkload, "hotspot's share of packets", kCell,
     [](Options& o, Value v) { o.traffic.hotspotFraction = v.number(); }},
    {"--trace", "FILE", kWorkload, "trace file ('cycle src dst' lines)",
     kCell, [](Options& o, Value v) {
         o.traffic.trace =
             std::make_shared<const std::vector<net::TraceRecord>>(
                 net::Trace::load(v.text));
     }},

    {"--sample", "N", kMeasurement, "sample packets (default 10000)", kCell,
     [](Options& o, Value v) { o.sim.samplePackets = v.u64(); }},
    {"--warmup", "N", kMeasurement, "warm-up cycles (default 1000)", kCell,
     [](Options& o, Value v) { o.sim.warmupCycles = v.u64(); }},
    {"--max-cycles", "N", kMeasurement, "cycle cap (default 1000000)", kCell,
     [](Options& o, Value v) { o.sim.maxCycles = v.u64(); }},
    {"--seed", "N", kMeasurement, "RNG seed (default 1)", kCell,
     [](Options& o, Value v) { o.sim.seed = v.u64(); }},
    {"--seeds", "N", kMeasurement,
     "runs per rate, averaged (rates x seeds <= " +
         std::to_string(kMaxSweepCells) + ")",
     kSweep, [](Options& o, Value v) { o.seeds = v.u32(); }},

    {"--link-ber", "F", kFaults, "per-bit link error rate in [0,1]", kCell,
     [](Options& o, Value v) {
         const double ber = v.number();
         if (ber < 0.0 || ber > 1.0)
             v.reject("must be in [0, 1]");
         o.sim.fault.linkBitErrorRate = ber;
     }},
    {"--link-outage", "START:END[:LINK]", kFaults,
     "drop every flit on LINK (default: a random one)", kCell,
     [](Options& o, Value v) {
         o.sim.fault.outages.push_back(parseOutageSpec(v.text));
     }},
    {"--fault-seed", "N", kFaults,
     "fault schedule seed (default: derived from --seed)", kCell,
     [](Options& o, Value v) { o.sim.fault.faultSeed = v.u64(); }},
    {"--retry-limit", "N", kFaults, "retransmissions per packet (default 8)",
     kCell, [](Options& o, Value v) {
         const unsigned long long n = v.u64();
         if (n > 32)
             v.reject("must be <= 32");
         o.sim.fault.retryLimit = static_cast<unsigned>(n);
     }},
    {"--retry-backoff", "N", kFaults, "base retry backoff cycles (default 8)",
     kCell, [](Options& o, Value v) {
         o.sim.fault.retryBackoffCycles = v.positive();
     }},

    {"--reroute", nullptr, kRobustness,
     "route around dead links; unreachable packets fail fast", kCell,
     [](Options& o, Value) { o.sim.rerouteOnOutage = true; }},
    {"--deadlock-detect", "N", kRobustness,
     "recover from wait-for cycles frozen for N cycles", kCell,
     [](Options& o, Value v) {
         const sim::Cycle n = v.positive();
         o.sim.deadlockDetect.enabled = true;
         o.sim.deadlockDetect.thresholdCycles = n;
         o.sim.deadlockDetect.probeCycles =
             std::max<sim::Cycle>(1, std::min<sim::Cycle>(128, n / 4));
     }},

    {"--debug-poison-rate", "R", kDrills,
     "runs at rate R fail a check right after construction", kCell,
     [](Options& o, Value v) { o.sim.debugPoisonRate = v.number(); }},
    {"--debug-segv-rate", "R", kDrills,
     "runs at rate R crash with SIGSEGV (worker crash drill)", kCell,
     [](Options& o, Value v) { o.sim.debugSegvRate = v.number(); }},

    {"--jobs", "N", kExecution,
     "worker threads (default: all cores; same results)", kSweep,
     [](Options& o, Value v) {
         o.jobs = static_cast<unsigned>(v.positive(UINT_MAX));
     }},

    {"--point-timeout", "SEC", kSurvivability,
     "wall-clock deadline per run; overruns stop as 'deadline'", kCell,
     [](Options& o, Value v) {
         const double sec = v.number();
         if (sec <= 0.0)
             v.reject("must be > 0 seconds");
         o.pointTimeoutSeconds = sec;
     }},
    {"--checkpoint", "FILE", kSurvivability,
     "journal finished cells to FILE (crash-safe)", kSweep,
     [](Options& o, Value v) { o.checkpoint = v.text; }},
    {"--resume", "FILE", kSurvivability,
     "skip the cells FILE journals, append new ones", kSweep,
     [](Options& o, Value v) { o.resume = v.text; }},
    {"--isolate", nullptr, kSurvivability,
     "one orion_sim process per cell; crashes become rows", kSweep,
     [](Options& o, Value) { o.isolate = true; }},
    {"--isolate-exe", "PATH", kSurvivability,
     "worker binary (default: next to orion_sweep)", kSweep,
     [](Options& o, Value v) { o.isolateExe = v.text; }},
    {"--isolate-mem", "MB", kSurvivability, "worker RLIMIT_AS (MiB)", kSweep,
     [](Options& o, Value v) { o.isolateMemMb = v.u64(UINT64_MAX >> 20); }},
    {"--isolate-cpu", "SEC", kSurvivability, "worker RLIMIT_CPU (seconds)",
     kSweep, [](Options& o, Value v) { o.isolateCpuSeconds = v.u64(); }},

    {"--csv", nullptr, kOutput, "machine-readable one-row CSV", kSim,
     [](Options& o, Value) { o.csv = true; }},
    {"--breakdown", nullptr, kOutput, "per-node power map + event counts",
     kSim, [](Options& o, Value) { o.breakdown = true; }},
    {"--report-out", "FILE", kOutput,
     "exact report line (hexfloat checkpoint entry)", kSim,
     [](Options& o, Value v) { o.reportOut = v.text; }},
    {"--resources", nullptr, kOutput,
     "add wall_s/cpu_s/maxrss_kb columns (nondeterministic)", kSweep,
     [](Options& o, Value) { o.resources = true; }},

    {"--metrics-out", "FILE", kTelemetry,
     "windowed metric time series (CSV)", kSim,
     [](Options& o, Value v) { o.metricsOut = v.text; }},
    {"--metrics-dir", "DIR", kTelemetry,
     "one series per cell: DIR[/seed_K]/point_NNN.csv", kSweep,
     [](Options& o, Value v) { o.metricsDir = v.text; }},
    {"--sample-interval", "N", kTelemetry,
     "cycles per sampling window (default 1000 with metrics)", kBoth,
     [](Options& o, Value v) {
         o.sim.telemetry.sampleInterval = v.positive();
     }},
    {"--trace-out", "FILE", kTelemetry,
     "Chrome trace-event JSON (Perfetto, chrome://tracing)", kSim,
     [](Options& o, Value v) { o.traceOut = v.text; }},
    {"--trace-dir", "DIR", kTelemetry,
     "one trace per cell: DIR[/seed_K]/point_NNN.json", kSweep,
     [](Options& o, Value v) { o.traceDir = v.text; }},
    {"--trace-capacity", "N", kTelemetry,
     "trace ring-buffer records (default 65536)", kBoth,
     [](Options& o, Value v) {
         o.sim.telemetry.traceCapacity = v.positive();
     }},

    {"--log-out", "FILE", kObservability,
     "structured JSON-lines log", kBoth,
     [](Options& o, Value v) { o.logOut = v.text; }},
    {"--log-level", "debug|info|warn|error", kObservability,
     "log threshold (default info)", kBoth, [](Options& o, Value v) {
         log::Level level = log::Level::Info;
         if (!log::parseLevel(v.text, level) || level == log::Level::Off)
             v.reject(std::string("wants ") + v.placeholder + ": '" +
                      v.text + "'");
         o.logLevel = v.text;
     }},
    {"--manifest-out", "FILE", kObservability,
     "run manifest JSON (fingerprint, build, progress, rusage)", kBoth,
     [](Options& o, Value v) { o.manifestOut = v.text; }},
    {"--profile-phases", nullptr, kObservability,
     "attribute run time to simulator phases", kBoth,
     [](Options& o, Value) { o.sim.profilePhases = true; }},
    {"--progress", nullptr, kObservability,
     "rewriting stderr progress line (TTY only)", kSweep,
     [](Options& o, Value) { o.progress = true; }},
};

unsigned
toolBit(Tool tool)
{
    return tool == Tool::Sim ? kSim : kSweep;
}

const char*
toolName(Tool tool)
{
    return tool == Tool::Sim ? "orion_sim" : "orion_sweep";
}

/** The entry for @p name, if @p tool takes it. */
const Flag&
lookup(const std::string& name, Tool tool)
{
    for (const Flag& f : kFlags) {
        if (name != f.name)
            continue;
        const Tool other = tool == Tool::Sim ? Tool::Sweep : Tool::Sim;
        if ((f.tools & toolBit(tool)) == 0)
            fail(name + " is an " + toolName(other) + " option");
        return f;
    }
    fail("unknown option '" + name + "'");
}

/** orion_sweep's checks across flags, once every flag is parsed. */
void
checkSweep(const Options& o)
{
    if (o.seeds < 1)
        fail("--seeds must be >= 1");
    if (o.rates.size() * o.seeds > kMaxSweepCells) {
        fail(std::to_string(o.rates.size()) + " rates x " +
             std::to_string(o.seeds) + " seeds is more than the " +
             std::to_string(kMaxSweepCells) + " cells a sweep may hold");
    }
    const bool journaling = !o.checkpoint.empty() || !o.resume.empty();
    if (!o.checkpoint.empty() && !o.resume.empty()) {
        fail("--checkpoint and --resume are mutually exclusive "
             "(--resume keeps appending to its journal)");
    }
    const bool telemetry = !o.metricsDir.empty() || !o.traceDir.empty();
    if (journaling && telemetry) {
        fail("--checkpoint/--resume cannot be combined with "
             "--metrics-dir/--trace-dir (telemetry exports are not "
             "journaled)");
    }
    if (o.isolate && telemetry)
        fail("--isolate cannot be combined with --metrics-dir/--trace-dir");
    if (!o.isolate && (!o.isolateExe.empty() || o.isolateMemMb != 0 ||
                       o.isolateCpuSeconds != 0))
        fail("--isolate-exe/--isolate-mem/--isolate-cpu require --isolate");
}

/** Refuse each flag of @p given that would change nothing: its effect
 * reaches only an output the command line does not ask for. */
void
checkNeeds(const Options& o, const std::set<std::string>& given, Tool tool)
{
    const auto need = [&given](const char* flag, bool met, const char* what) {
        if (given.count(flag) != 0 && !met)
            fail(std::string(flag) + " needs " + what);
    };
    const bool sim = tool == Tool::Sim;
    const bool metrics = !o.metricsOut.empty() || !o.metricsDir.empty();
    const bool trace = !o.traceOut.empty() || !o.traceDir.empty();
    need("--sample-interval", metrics,
         sim ? "--metrics-out" : "--metrics-dir");
    need("--trace-capacity", trace, sim ? "--trace-out" : "--trace-dir");
    // Only orion_sim's manifest carries the phase gauges.
    need("--profile-phases",
         metrics || trace || (sim && !o.manifestOut.empty()),
         sim ? "--manifest-out, --metrics-out or --trace-out"
             : "--metrics-dir or --trace-dir");
    need("--log-level", !o.logOut.empty(), "--log-out");
}

/** The file @p path names once every symbolic link is followed,
 * including a dangling one, which names the file its target will be
 * (relative to the link's directory). */
std::filesystem::path
fileNamed(const std::string& path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    // absolute() first: weakly_canonical keeps a relative path
    // relative when no prefix of it exists, so x and ./x differ.
    fs::path p = fs::absolute(path, ec);
    // weakly_canonical stops at the first missing file, so it leaves a
    // dangling link unresolved; 40 hops is the kernel's own limit.
    for (int hops = 0; hops < 40 &&
                       fs::is_symlink(fs::symlink_status(p, ec)) &&
                       !fs::exists(fs::status(p, ec));
         ++hops)
        p = p.parent_path() / fs::read_symlink(p, ec);
    p = fs::weakly_canonical(p, ec);
    return ec ? fs::path(path) : p;
}

/** Refuse two of @p files, a map from flag to the file it names, that
 * are one file: a run must not write over its own journal, log or
 * trace input. */
void
checkDistinct(const std::map<std::string, std::string>& files)
{
    std::map<std::filesystem::path, std::string> seen;
    for (const auto& [flag, path] : files) {
        if (path.empty())
            continue; // names no file
        const auto [it, fresh] = seen.emplace(fileNamed(path), flag);
        if (!fresh)
            fail(it->second + " and " + flag + " name the same file '" +
                 path + "'");
    }
}

} // namespace

Options
parse(const std::vector<std::string>& args, Tool tool)
{
    try {
        Options o;
        o.traffic.injectionRate = 0.05;

        static const std::string kSwitch;
        std::set<std::string> given;
        // A FILE value names a file the run reads (--trace) or writes.
        std::map<std::string, std::string> files;
        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string& a = args[i];
            if (a == "--help" || a == "-h") {
                o.helpRequested = true;
                return o;
            }
            const Flag& f = lookup(a, tool);
            if (f.placeholder != nullptr && i + 1 >= args.size())
                fail(a + ": missing value");
            const std::string& v = f.placeholder ? args[++i] : kSwitch;
            f.set(o, Value{a, v, f.placeholder});
            given.insert(a);
            if (f.placeholder && f.placeholder == std::string("FILE"))
                files[a] = v;
        }
        // A journaling sweep keeps its manifest beside the journal.
        const std::string& journal =
            o.resume.empty() ? o.checkpoint : o.resume;
        if (o.manifestOut.empty() && !journal.empty()) {
            o.manifestOut = journal + ".manifest.json";
            files["the run manifest"] = o.manifestOut;
        }
        // writeFileAtomic stages each manifest write in PATH.tmp.
        if (!o.manifestOut.empty())
            files["the run manifest's staging file"] = o.manifestOut + ".tmp";

        // A metrics file or directory without an explicit interval
        // samples every 1000 cycles; a trace file or directory enables
        // the tracer.
        if ((!o.metricsOut.empty() || !o.metricsDir.empty()) &&
            o.sim.telemetry.sampleInterval == 0)
            o.sim.telemetry.sampleInterval = 1000;
        if (!o.traceOut.empty() || !o.traceDir.empty())
            o.sim.telemetry.traceEnabled = true;

        // Cross-field checks happen in the library validators; run
        // them here so errors surface before the (possibly long) run
        // starts.
        validateConfig(o.network, o.traffic, o.sim);
        if (tool == Tool::Sweep)
            checkSweep(o);
        checkNeeds(o, given, tool);
        checkDistinct(files);
        return o;
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string(toolName(tool)) + ": " +
                                    e.what() + " (--help for usage)");
    }
}

std::string
usage(Tool tool)
{
    constexpr std::size_t kHelpColumn = 24;
    std::string out = std::string("usage: ") + toolName(tool) + " [options]\n";
    const char* group = nullptr;
    for (const Flag& f : kFlags) {
        if ((f.tools & toolBit(tool)) == 0)
            continue;
        if (f.group != group) {
            group = f.group;
            out += std::string("\n") + group + ":\n";
        }
        std::string line = std::string("  ") + f.name;
        if (f.placeholder != nullptr)
            line += std::string(" ") + f.placeholder;
        // A long flag puts its help on the next line.
        if (line.size() + 2 > kHelpColumn)
            line += '\n' + std::string(kHelpColumn, ' ');
        else
            line.resize(kHelpColumn, ' ');
        out += line + f.help + "\n";
    }
    return out;
}

std::vector<std::string>
workerArgs(const std::vector<std::string>& args)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const Flag& f = lookup(args[i], Tool::Sweep);
        if ((f.tools & kForwarded) != 0) {
            out.push_back(args[i]);
            if (f.placeholder != nullptr)
                out.push_back(args.at(i + 1));
        }
        if (f.placeholder != nullptr)
            ++i;
    }
    return out;
}

void
configureLogger(const Options& opts)
{
    if (!opts.logOut.empty()) {
        log::Level level = log::Level::Info;
        log::parseLevel(opts.logLevel, level);
        log::configure(opts.logOut, level);
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
