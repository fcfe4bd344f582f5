#include "core/checkpoint.hh"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ranges>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

#include "base/check.hh"

namespace orion::core {

namespace {

/** Escape a string field for the '|'-separated line format: '%',
 * '|', newline and CR become %XX so a field can never fake a
 * separator or break line framing. */
std::string
escapeField(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        switch (ch) {
          case '%':  out += "%25"; break;
          case '|':  out += "%7C"; break;
          case '\n': out += "%0A"; break;
          case '\r': out += "%0D"; break;
          default:   out += ch; break;
        }
    }
    return out;
}

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/** Undo escapeField. @throw CheckpointError on a malformed or
 * truncated %-escape. */
std::string
unescapeField(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            out += s[i];
            continue;
        }
        if (i + 2 >= s.size())
            throw CheckpointError("checkpoint: truncated %-escape");
        const int hi = hexNibble(s[i + 1]);
        const int lo = hexNibble(s[i + 2]);
        if (hi < 0 || lo < 0)
            throw CheckpointError("checkpoint: malformed %-escape");
        out += static_cast<char>((hi << 4) | lo);
        i += 2;
    }
    return out;
}

} // namespace

std::string
hex16(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

namespace {

std::uint64_t
parseU64Field(std::string_view key, std::string_view v)
{
    const std::string k(key);
    if (v.empty())
        throw CheckpointError("checkpoint: empty field '" + k + "'");
    const std::string s(v);
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size() || s.front() == '-')
        throw CheckpointError("checkpoint: bad integer in field '" +
                              k + "': '" + s + "'");
    return n;
}

/** Incremental configuration hasher: every value lands with a type
 * tag and terminator, so field boundaries can't alias. */
class FpHasher
{
  public:
    void
    add(std::string_view s)
    {
        h_ = fnv1a64("s:", h_);
        h_ = fnv1a64(s, h_);
        h_ = fnv1a64(";", h_);
    }

    void
    addU(std::uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "u:%llu;",
                      static_cast<unsigned long long>(v));
        h_ = fnv1a64(buf, h_);
    }

    void
    addI(long long v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "i:%lld;", v);
        h_ = fnv1a64(buf, h_);
    }

    void
    addD(double v)
    {
        h_ = fnv1a64("d:", h_);
        h_ = fnv1a64(exactDouble(v), h_);
        h_ = fnv1a64(";", h_);
    }

    std::uint64_t hash() const { return h_; }

  private:
    std::uint64_t h_ = kFnvOffset;
};

/** The journal version understood by this build. */
constexpr const char* kHeaderPrefix = "#orion-checkpoint v1 fp=";

} // namespace

std::string
exactDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

double
parseExactDouble(const std::string& s)
{
    if (s.empty())
        throw CheckpointError("checkpoint: empty double field");
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size())
        throw CheckpointError("checkpoint: bad double '" + s + "'");
    return v;
}

std::uint64_t
fnv1a64(std::string_view s, std::uint64_t h)
{
    for (const char ch : s) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x00000100000001b3ULL;
    }
    return h;
}

std::uint64_t
sweepFingerprint(const NetworkConfig& network,
                 const TrafficConfig& traffic, const SimConfig& sim,
                 const std::vector<double>& rates, unsigned seeds)
{
    FpHasher fp;
    fp.addU(kDeterminismEpoch);

    // Network structure.
    const net::NetworkParams& n = network.net;
    fp.addU(n.dims.size());
    for (const unsigned d : n.dims)
        fp.addU(d);
    fp.addU(n.wrap ? 1 : 0);
    fp.addI(static_cast<int>(n.routerKind));
    fp.addU(n.vcs);
    fp.addU(n.bufferDepth);
    fp.addU(n.flitBits);
    fp.addU(n.packetLength);
    fp.addI(static_cast<int>(n.deadlock));
    fp.addI(static_cast<int>(n.arbiterKind));
    fp.addU(n.speculative ? 1 : 0);
    fp.addU(n.centralBuffer.capacityFlits);
    fp.addU(n.centralBuffer.writePorts);
    fp.addU(n.centralBuffer.readPorts);
    fp.addU(n.centralBuffer.pipelineLatency);
    fp.addU(n.dimOrder.size());
    for (const unsigned d : n.dimOrder)
        fp.addU(d);
    fp.addI(static_cast<int>(n.tieBreak));
    fp.addI(static_cast<int>(n.injection));

    // Technology + power-model knobs (they set the power bytes).
    const tech::TechNode& t = network.tech;
    fp.addD(t.featureUm);
    fp.addD(t.vdd);
    fp.addD(t.freqHz);
    fp.addD(t.cgPerUm);
    fp.addD(t.cdPerUm);
    fp.addD(t.cwPerUm);
    fp.addD(t.cellHeightUm);
    fp.addD(t.cellWidthUm);
    fp.addD(t.wirePitchUm);
    fp.addD(t.stageEffort);
    fp.addI(static_cast<int>(network.linkType));
    fp.addD(network.linkLengthUm);
    fp.addD(network.c2cLinkPowerWatts);
    fp.addI(static_cast<int>(network.crossbarKind));
    fp.addI(static_cast<int>(network.bufferOrg));

    // Workload (the replay trace hashes record-by-record: a changed
    // trace file is a different sweep).
    fp.addI(static_cast<int>(traffic.pattern));
    fp.addD(traffic.injectionRate);
    fp.addI(traffic.broadcastSource);
    fp.addI(traffic.hotspotNode);
    fp.addD(traffic.hotspotFraction);
    if (traffic.trace) {
        fp.addU(traffic.trace->size());
        for (const net::TraceRecord& rec : *traffic.trace) {
            fp.addU(rec.cycle);
            fp.addI(rec.src);
            fp.addI(rec.dst);
        }
    } else {
        fp.add("no-trace");
    }

    // Measurement protocol + seeds + fault schedule + drills. The
    // runtime check level gates audits, which decide when a failing
    // run fails, so it binds too.
    fp.addU(sim.warmupCycles);
    fp.addU(sim.samplePackets);
    fp.addU(sim.maxCycles);
    fp.addU(sim.watchdogCycles);
    fp.addU(sim.seed);
    fp.addU(sim.auditCycles);
    fp.addI(static_cast<int>(core::checkLevel()));
    fp.addD(sim.fault.linkBitErrorRate);
    fp.addU(sim.fault.outages.size());
    for (const net::OutageWindow& w : sim.fault.outages) {
        fp.addU(w.start);
        fp.addU(w.end);
        fp.addI(w.link);
    }
    fp.addU(sim.fault.stalls.size());
    for (const net::PortStallWindow& w : sim.fault.stalls) {
        fp.addI(w.node);
        fp.addU(w.port);
        fp.addU(w.start);
        fp.addU(w.end);
    }
    fp.addU(sim.fault.faultSeed);
    fp.addU(sim.fault.retryLimit);
    fp.addU(sim.fault.retryBackoffCycles);
    fp.addU(sim.rerouteOnOutage ? 1 : 0);
    fp.addU(sim.deadlockDetect.enabled ? 1 : 0);
    fp.addU(sim.deadlockDetect.probeCycles);
    fp.addU(sim.deadlockDetect.thresholdCycles);
    fp.addU(sim.deadlockDetect.maxRecoveries);
    fp.addD(sim.debugPoisonRate);
    fp.addU(sim.debugPoisonTransient ? 1 : 0);
    fp.addD(sim.debugSegvRate);

    // The sweep grid itself.
    fp.addU(rates.size());
    for (const double r : rates)
        fp.addD(r);
    fp.addU(seeds);

    return fp.hash();
}

std::string
checkpointHeader(std::uint64_t fingerprint)
{
    return kHeaderPrefix + hex16(fingerprint);
}

namespace {

/**
 * The entry wire format's one field table: every (key, member) pair,
 * in line order. serializeEntry writes the fields flagged present;
 * parseEntry looks each key of a line up here. @p E is
 * CheckpointEntry or const CheckpointEntry.
 */
template <typename E, typename Field>
void
forEachField(E& e, Field&& field)
{
    auto& r = e.report;
    field("ri", e.rateIndex);
    field("si", e.seedIndex);
    field("att", e.attempts);
    field("al", r.avgLatencyCycles);
    field("q50", r.p50LatencyCycles);
    field("q95", r.p95LatencyCycles);
    field("q99", r.p99LatencyCycles);
    field("ml", r.maxLatencyCycles);
    field("sj", r.sampleInjected);
    field("se", r.sampleEjected);
    field("ol", r.offeredLoad);
    field("tp", r.acceptedFlitsPerNodePerCycle);
    field("tc", r.totalCycles);
    field("mc", r.measuredCycles);
    field("sr", r.stopReason);
    field("cd", r.checkFailureDiagnostic);
    field("co", r.completed);
    field("dl", r.deadlockSuspected);
    field("mo", r.moduleCount);
    field("fc", r.flitsCorrupted);
    field("fo", r.flitsOutageDropped);
    field("fd", r.flitsDiscarded);
    field("pr", r.packetsRetransmitted);
    field("pl", r.packetsLost);
    field("fh", r.faultLogHash);
    field("pu", r.packetsUnreachable);
    field("rr", r.reroutes);
    field("dd", r.deadlocksDetected);
    field("dr", r.deadlocksRecovered);
    field("pw", r.networkPowerWatts);
    field("de", r.dynamicEnergyJoules);
    field("ef", r.energyPerFlitJoules);
    field("b0", r.breakdownWatts.buffer);
    field("b1", r.breakdownWatts.crossbar);
    field("b2", r.breakdownWatts.arbiter);
    field("b3", r.breakdownWatts.link);
    field("b4", r.breakdownWatts.centralBuffer);
    field("np", r.nodePowerWatts);
    field("ec", r.eventCounts);
    field("f", e.failed, e.failed);
    field("flr", e.failureReason, e.failed);
    field("fms", e.failureMessage, e.failed);
    field("fjn", e.failureForensics, e.failed);
    field("wx", e.workerExit, !e.workerExit.empty());
}

/// @name Field encodings, by member type
/// Integers, flags and enums in decimal, doubles as hexfloats,
/// strings %-escaped, lists comma-separated.
/// @{
template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
void
put(std::string& out, T v)
{
    out += std::to_string(static_cast<std::uint64_t>(v));
}

void
put(std::string& out, double v)
{
    out += exactDouble(v);
}

void
put(std::string& out, const std::string& v)
{
    out += escapeField(v);
}

template <std::ranges::range List>
    requires(!std::is_same_v<List, std::string>)
void
put(std::string& out, const List& list)
{
    const char* sep = "";
    for (const auto& v : list) {
        out += sep;
        put(out, v);
        sep = ",";
    }
}

/** Call @p item on every comma-separated element of @p list. */
template <typename Item>
void
forEachItem(std::string_view list, Item&& item)
{
    while (!list.empty()) {
        const std::size_t comma = list.find(',');
        item(list.substr(0, comma));
        list = comma == std::string_view::npos ? std::string_view{}
                                               : list.substr(comma + 1);
    }
}

template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
void
get(std::string_view key, std::string_view v, T& out)
{
    out = static_cast<T>(parseU64Field(key, v));
}

void
get(std::string_view, std::string_view v, double& out)
{
    out = parseExactDouble(std::string(v));
}

void
get(std::string_view, std::string_view v, std::string& out)
{
    out = unescapeField(v);
}

template <std::size_t N>
void
get(std::string_view key, std::string_view v,
    std::array<std::uint64_t, N>& out)
{
    std::size_t n = 0;
    forEachItem(v, [&](std::string_view item) {
        if (n == N)
            throw CheckpointError("checkpoint: too many values in '" +
                                  std::string(key) + "'");
        out[n++] = parseU64Field(key, item);
    });
    if (n != N)
        throw CheckpointError("checkpoint: wrong value count in '" +
                              std::string(key) + "'");
}

void
get(std::string_view, std::string_view v, std::vector<double>& out)
{
    out.clear();
    forEachItem(v, [&out](std::string_view item) {
        out.push_back(parseExactDouble(std::string(item)));
    });
}
/// @}

} // namespace

std::string
serializeEntry(const CheckpointEntry& e)
{
    std::string line = "P";
    forEachField(e, [&line](const char* key, const auto& value,
                            bool present = true) {
        if (!present)
            return;
        line += '|';
        line += key;
        line += '=';
        put(line, value);
    });
    line += "|c=" + hex16(fnv1a64(line));
    return line;
}

CheckpointEntry
parseEntry(std::string_view line)
{
    // Verify and strip the trailing checksum first: it covers every
    // byte before "|c=", so any bit flip ahead of it is caught here.
    const std::size_t cpos = line.rfind("|c=");
    if (line.size() < 2 || line[0] != 'P' || line[1] != '|' ||
        cpos == std::string_view::npos ||
        cpos + 3 + 16 != line.size()) {
        throw CheckpointError(
            "checkpoint: malformed entry line (no checksum)");
    }
    const std::uint64_t want = fnv1a64(line.substr(0, cpos));
    if (hex16(want) != std::string(line.substr(cpos + 3)))
        throw CheckpointError("checkpoint: entry checksum mismatch");

    CheckpointEntry e;
    bool saw_ri = false;
    bool saw_si = false;
    bool saw_ec = false;
    std::string_view rest = line.substr(2, cpos - 2);
    while (!rest.empty()) {
        const std::size_t bar = rest.find('|');
        const std::string_view field = rest.substr(0, bar);
        rest = bar == std::string_view::npos ? std::string_view{}
                                             : rest.substr(bar + 1);

        const std::size_t eq = field.find('=');
        if (eq == std::string_view::npos)
            throw CheckpointError(
                "checkpoint: field without '=' in entry");
        const std::string_view key = field.substr(0, eq);
        bool known = false;
        forEachField(e, [&](const char* name, auto& member, bool = true) {
            if (!known && key == name) {
                get(key, field.substr(eq + 1), member);
                known = true;
            }
        });
        if (!known)
            throw CheckpointError("checkpoint: unknown entry field '" +
                                  std::string(key) + "'");
        saw_ri = saw_ri || key == "ri";
        saw_si = saw_si || key == "si";
        saw_ec = saw_ec || key == "ec";
    }

    if (!saw_ri || !saw_si || !saw_ec)
        throw CheckpointError(
            "checkpoint: entry missing required fields");
    return e;
}

CheckpointLoad
loadCheckpoint(const std::string& path,
               std::uint64_t expect_fingerprint)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw CheckpointError("checkpoint: cannot read '" + path +
                              "': " + std::strerror(errno));
    }

    std::string header;
    if (!std::getline(in, header) ||
        header.rfind(kHeaderPrefix, 0) != 0 ||
        header.size() !=
            std::strlen(kHeaderPrefix) + 16) {
        throw CheckpointError("checkpoint: '" + path +
                              "' has no valid header line");
    }
    const std::string fp_hex =
        header.substr(std::strlen(kHeaderPrefix));
    std::uint64_t fp = 0;
    for (const char c : fp_hex) {
        const int nib = hexNibble(c);
        if (nib < 0)
            throw CheckpointError("checkpoint: '" + path +
                                  "' has a malformed fingerprint");
        fp = (fp << 4) | static_cast<unsigned>(nib);
    }
    if (fp != expect_fingerprint) {
        throw CheckpointError(
            "checkpoint: '" + path +
            "' was written for a different configuration "
            "(fingerprint " +
            hex16(fp) + ", this sweep is " +
            hex16(expect_fingerprint) +
            "); refusing to resume — delete the file or rerun the "
            "original command line");
    }

    CheckpointLoad load;
    load.fingerprint = fp;
    load.acceptedBytes = header.size() + (in.eof() ? 0 : 1);

    // Read every remaining line; remember whether the file ended in a
    // newline (a torn final line does not).
    std::vector<std::string> lines;
    std::string cur;
    bool final_complete = true;
    char ch = 0;
    while (in.get(ch)) {
        if (ch == '\n') {
            lines.push_back(std::move(cur));
            cur.clear();
            final_complete = true;
        } else {
            cur += ch;
            final_complete = false;
        }
    }
    if (!cur.empty())
        lines.push_back(std::move(cur));

    std::size_t lineno = 1;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        ++lineno;
        const bool is_last = i + 1 == lines.size();
        try {
            if (is_last && !final_complete)
                throw CheckpointError(
                    "checkpoint: torn final line (no newline)");
            load.entries.push_back(parseEntry(lines[i]));
            load.acceptedBytes += lines[i].size() + 1;
        } catch (const CheckpointError& e) {
            if (is_last) {
                // The torn tail of a crash: drop it, flag it — the
                // cell it would have recorded simply reruns.
                load.truncatedTail = true;
                break;
            }
            throw CheckpointError(
                "checkpoint: '" + path + "' line " +
                std::to_string(lineno) + ": " + e.what());
        }
    }
    return load;
}

CheckpointJournal::CheckpointJournal(const std::string& path,
                                     std::uint64_t fingerprint,
                                     bool resume)
    : path_(path)
{
    // A resumed journal ends at its last accepted entry: whatever
    // loadCheckpoint dropped is cut before the first append.
    const std::uint64_t keep =
        resume ? loadCheckpoint(path, fingerprint).acceptedBytes : 0;
    const int flags =
        resume ? (O_WRONLY | O_APPEND)
               : (O_WRONLY | O_CREAT | O_TRUNC | O_APPEND);
    LockGuard lock(mutex_);
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0) {
        throw CheckpointError("checkpoint: cannot open '" + path +
                              "' for writing: " +
                              std::strerror(errno));
    }
    if (resume && ::ftruncate(fd_, static_cast<off_t>(keep)) != 0) {
        const int err = errno;
        ::close(fd_);
        fd_ = -1;
        throw CheckpointError("checkpoint: cannot cut the torn tail of '" +
                              path + "': " + std::strerror(err));
    }
    if (!resume) {
        const std::string header =
            checkpointHeader(fingerprint) + "\n";
        if (::write(fd_, header.data(), header.size()) !=
                static_cast<ssize_t>(header.size()) ||
            ::fsync(fd_) != 0) {
            const int err = errno;
            ::close(fd_);
            fd_ = -1;
            throw CheckpointError(
                "checkpoint: cannot write header to '" + path +
                "': " + std::strerror(err));
        }
    }
}

CheckpointJournal::~CheckpointJournal()
{
    LockGuard lock(mutex_);
    if (fd_ >= 0)
        ::close(fd_);
}

void
CheckpointJournal::append(const CheckpointEntry& e)
{
    const std::string line = serializeEntry(e) + "\n";
    LockGuard lock(mutex_);
    if (fd_ < 0)
        throw CheckpointError("checkpoint: journal already closed");
    // One write per line: O_APPEND makes concurrent appends land
    // whole, and the fsync makes the entry durable before the sweep
    // claims the cell is done.
    if (::write(fd_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
        throw CheckpointError("checkpoint: write to '" + path_ +
                              "' failed: " + std::strerror(errno));
    }
    if (::fsync(fd_) != 0) {
        throw CheckpointError("checkpoint: fsync of '" + path_ +
                              "' failed: " + std::strerror(errno));
    }
}

} // namespace orion::core
