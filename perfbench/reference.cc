#include "reference.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/** The tolerance ROADMAP item 3 allows for reordered energy sums. */
constexpr double kRelTolerance = 1e-12;

bool
close(double a, double b)
{
    return std::abs(a - b) <=
           kRelTolerance * std::max(std::abs(a), std::abs(b));
}

std::string
key(std::uint64_t seed, const std::string& cas)
{
    return std::to_string(seed) + " " + cas;
}

/** First field that differs, or empty when @p got matches @p want. */
std::string
compare(const Digest& got, const Digest& want)
{
    const auto count = [](const char* what, std::uint64_t g,
                          std::uint64_t w) {
        return g == w ? std::string{}
                      : std::string(what) + " " + std::to_string(g) +
                            " != " + std::to_string(w);
    };
    for (const std::string& diff :
         {count("cycles", got.cycles, want.cycles),
          count("window flits", got.windowFlits, want.windowFlits),
          count("packets", got.packets, want.packets),
          count("sample injected", got.sampleInjected,
                want.sampleInjected),
          count("sample ejected", got.sampleEjected, want.sampleEjected)}) {
        if (!diff.empty())
            return diff;
    }
    char buf[128];
    if (!close(got.avgLatency, want.avgLatency)) {
        std::snprintf(buf, sizeof buf, "latency %.17g != %.17g",
                      got.avgLatency, want.avgLatency);
        return buf;
    }
    if (!close(got.powerWatts, want.powerWatts)) {
        std::snprintf(buf, sizeof buf, "power %.17g != %.17g",
                      got.powerWatts, want.powerWatts);
        return buf;
    }
    return {};
}

} // namespace

std::string
Digest::format() const
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %" PRIu64 " %a %a",
                  cycles, windowFlits, packets, sampleInjected,
                  sampleEjected, avgLatency, powerWatts);
    return buf;
}

Digest
digestOf(const orion::Report& r, unsigned nodes)
{
    Digest d;
    d.cycles = r.totalCycles;
    // The report carries window throughput per node per cycle; the
    // product recovers the integer flit count (well within a double's
    // exact range).
    d.windowFlits = static_cast<std::uint64_t>(std::llround(
        r.acceptedFlitsPerNodePerCycle *
        static_cast<double>(r.measuredCycles) * nodes));
    d.packets = r.eventCounts[static_cast<unsigned>(
        orion::sim::EventType::PacketEjected)];
    d.sampleInjected = r.sampleInjected;
    d.sampleEjected = r.sampleEjected;
    d.avgLatency = r.avgLatencyCycles;
    d.powerWatts = r.networkPowerWatts;
    return d;
}

Reference
Reference::load(const std::string& path)
{
    Reference ref;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::uint64_t seed = 0;
        std::string cas, lat, pow;
        Digest d;
        if (!(fields >> seed >> cas >> d.cycles >> d.windowFlits >>
              d.packets >> d.sampleInjected >> d.sampleEjected >> lat >>
              pow))
            continue;
        d.avgLatency = std::strtod(lat.c_str(), nullptr);
        d.powerWatts = std::strtod(pow.c_str(), nullptr);
        ref.digests_[key(seed, cas)] = d;
    }
    return ref;
}

const Digest*
Reference::find(std::uint64_t seed, const std::string& cas) const
{
    const auto it = digests_.find(key(seed, cas));
    return it == digests_.end() ? nullptr : &it->second;
}

Checker::Checker(Reference ref, std::uint64_t seed, bool recording)
    : ref_(std::move(ref)), seed_(seed), recording_(recording)
{
}

bool
Checker::fail(const std::string& cas, const std::string& why)
{
    // A broken build fails every run; the first few say why.
    if (reported_++ < 5) {
        std::fprintf(stderr, "perfbench: %s (seed %" PRIu64 "): %s\n",
                     cas.c_str(), seed_, why.c_str());
    }
    return false;
}

bool
Checker::check(const std::string& cas, const orion::Report& r,
               unsigned nodes)
{
    if (!r.completed || r.stopReason != orion::StopReason::Completed)
        return fail(cas, "run did not complete: " +
                             r.checkFailureDiagnostic);
    if (r.sampleEjected != r.sampleInjected)
        return fail(cas, "sample not fully delivered");
    const Digest d = digestOf(r, nodes);
    first_.emplace(cas, d);
    if (recording_)
        return true;
    const Digest* want = ref_.find(seed_, cas);
    if (want == nullptr)
        return fail(cas, "no reference digest for this case");
    const std::string diff = compare(d, *want);
    return diff.empty() ? true : fail(cas, "digest mismatch: " + diff);
}

std::uint64_t
Checker::fingerprint() const
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const auto& [cas, d] : first_) {
        for (const char c : cas + " " + d.format()) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ULL;
        }
    }
    return h;
}

} // namespace perfbench
