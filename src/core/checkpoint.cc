#include "core/checkpoint.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "core/check.hh"

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
parseU64Field(const std::string& key, std::string_view v)
{
    if (v.empty())
        throw CheckpointError("checkpoint: empty field '" + key + "'");
    const std::string s(v);
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size() || s.front() == '-')
        throw CheckpointError("checkpoint: bad integer in field '" +
                              key + "': '" + s + "'");
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

std::string
serializeEntry(const CheckpointEntry& e)
{
    std::ostringstream out;
    const Report& r = e.report;
    out << "P|ri=" << e.rateIndex << "|si=" << e.seedIndex
        << "|att=" << e.attempts;

    out << "|al=" << exactDouble(r.avgLatencyCycles)
        << "|q50=" << exactDouble(r.p50LatencyCycles)
        << "|q95=" << exactDouble(r.p95LatencyCycles)
        << "|q99=" << exactDouble(r.p99LatencyCycles)
        << "|ml=" << exactDouble(r.maxLatencyCycles)
        << "|sj=" << r.sampleInjected << "|se=" << r.sampleEjected
        << "|ol=" << exactDouble(r.offeredLoad)
        << "|tp=" << exactDouble(r.acceptedFlitsPerNodePerCycle)
        << "|tc=" << r.totalCycles << "|mc=" << r.measuredCycles
        << "|sr=" << static_cast<int>(r.stopReason)
        << "|cd=" << escapeField(r.checkFailureDiagnostic)
        << "|co=" << (r.completed ? 1 : 0)
        << "|dl=" << (r.deadlockSuspected ? 1 : 0)
        << "|mo=" << r.moduleCount;

    out << "|fc=" << r.flitsCorrupted << "|fo=" << r.flitsOutageDropped
        << "|fd=" << r.flitsDiscarded
        << "|pr=" << r.packetsRetransmitted << "|pl=" << r.packetsLost
        << "|fh=" << r.faultLogHash << "|pu=" << r.packetsUnreachable
        << "|rr=" << r.reroutes << "|dd=" << r.deadlocksDetected
        << "|dr=" << r.deadlocksRecovered;

    out << "|pw=" << exactDouble(r.networkPowerWatts)
        << "|de=" << exactDouble(r.dynamicEnergyJoules)
        << "|ef=" << exactDouble(r.energyPerFlitJoules)
        << "|b0=" << exactDouble(r.breakdownWatts.buffer)
        << "|b1=" << exactDouble(r.breakdownWatts.crossbar)
        << "|b2=" << exactDouble(r.breakdownWatts.arbiter)
        << "|b3=" << exactDouble(r.breakdownWatts.link)
        << "|b4=" << exactDouble(r.breakdownWatts.centralBuffer);

    out << "|np=";
    for (std::size_t i = 0; i < r.nodePowerWatts.size(); ++i) {
        if (i)
            out << ',';
        out << exactDouble(r.nodePowerWatts[i]);
    }
    out << "|ec=";
    for (std::size_t i = 0; i < r.eventCounts.size(); ++i) {
        if (i)
            out << ',';
        out << r.eventCounts[i];
    }

    if (e.failed) {
        out << "|f=1|flr=" << static_cast<int>(e.failureReason)
            << "|fms=" << escapeField(e.failureMessage)
            << "|fjn=" << escapeField(e.failureForensics);
    }
    if (!e.workerExit.empty())
        out << "|wx=" << escapeField(e.workerExit);

    std::string payload = out.str();
    payload += "|c=";
    payload += hex16(
        fnv1a64(std::string_view(payload.data(),
                                 payload.size() - 3 /* "|c=" */)));
    return payload;
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
    Report& r = e.report;
    bool saw_ri = false;
    bool saw_si = false;
    bool saw_ec = false;

    std::string_view rest = line.substr(2, cpos - 2);
    while (!rest.empty()) {
        const std::size_t bar = rest.find('|');
        const std::string_view field = rest.substr(0, bar);
        rest = bar == std::string_view::npos
                   ? std::string_view{}
                   : rest.substr(bar + 1);

        const std::size_t eq = field.find('=');
        if (eq == std::string_view::npos)
            throw CheckpointError(
                "checkpoint: field without '=' in entry");
        const std::string key(field.substr(0, eq));
        const std::string_view v = field.substr(eq + 1);
        const std::string vs(v);

        const auto u = [&] { return parseU64Field(key, v); };
        const auto d = [&] { return parseExactDouble(vs); };

        if (key == "ri") {
            e.rateIndex = u();
            saw_ri = true;
        } else if (key == "si") {
            e.seedIndex = u();
            saw_si = true;
        } else if (key == "att") {
            e.attempts = static_cast<unsigned>(u());
        } else if (key == "al") {
            r.avgLatencyCycles = d();
        } else if (key == "q50") {
            r.p50LatencyCycles = d();
        } else if (key == "q95") {
            r.p95LatencyCycles = d();
        } else if (key == "q99") {
            r.p99LatencyCycles = d();
        } else if (key == "ml") {
            r.maxLatencyCycles = d();
        } else if (key == "sj") {
            r.sampleInjected = u();
        } else if (key == "se") {
            r.sampleEjected = u();
        } else if (key == "ol") {
            r.offeredLoad = d();
        } else if (key == "tp") {
            r.acceptedFlitsPerNodePerCycle = d();
        } else if (key == "tc") {
            r.totalCycles = u();
        } else if (key == "mc") {
            r.measuredCycles = u();
        } else if (key == "sr") {
            r.stopReason = static_cast<StopReason>(u());
        } else if (key == "cd") {
            r.checkFailureDiagnostic = unescapeField(v);
        } else if (key == "co") {
            r.completed = u() != 0;
        } else if (key == "dl") {
            r.deadlockSuspected = u() != 0;
        } else if (key == "mo") {
            r.moduleCount = static_cast<std::size_t>(u());
        } else if (key == "fc") {
            r.flitsCorrupted = u();
        } else if (key == "fo") {
            r.flitsOutageDropped = u();
        } else if (key == "fd") {
            r.flitsDiscarded = u();
        } else if (key == "pr") {
            r.packetsRetransmitted = u();
        } else if (key == "pl") {
            r.packetsLost = u();
        } else if (key == "fh") {
            r.faultLogHash = u();
        } else if (key == "pu") {
            r.packetsUnreachable = u();
        } else if (key == "rr") {
            r.reroutes = u();
        } else if (key == "dd") {
            r.deadlocksDetected = u();
        } else if (key == "dr") {
            r.deadlocksRecovered = u();
        } else if (key == "pw") {
            r.networkPowerWatts = d();
        } else if (key == "de") {
            r.dynamicEnergyJoules = d();
        } else if (key == "ef") {
            r.energyPerFlitJoules = d();
        } else if (key == "b0") {
            r.breakdownWatts.buffer = d();
        } else if (key == "b1") {
            r.breakdownWatts.crossbar = d();
        } else if (key == "b2") {
            r.breakdownWatts.arbiter = d();
        } else if (key == "b3") {
            r.breakdownWatts.link = d();
        } else if (key == "b4") {
            r.breakdownWatts.centralBuffer = d();
        } else if (key == "np") {
            r.nodePowerWatts.clear();
            std::string_view list = v;
            while (!list.empty()) {
                const std::size_t comma = list.find(',');
                r.nodePowerWatts.push_back(parseExactDouble(
                    std::string(list.substr(0, comma))));
                list = comma == std::string_view::npos
                           ? std::string_view{}
                           : list.substr(comma + 1);
            }
        } else if (key == "ec") {
            std::string_view list = v;
            std::size_t idx = 0;
            while (!list.empty()) {
                const std::size_t comma = list.find(',');
                if (idx >= r.eventCounts.size())
                    throw CheckpointError(
                        "checkpoint: too many event counts");
                r.eventCounts[idx++] =
                    parseU64Field("ec", list.substr(0, comma));
                list = comma == std::string_view::npos
                           ? std::string_view{}
                           : list.substr(comma + 1);
            }
            if (idx != r.eventCounts.size())
                throw CheckpointError(
                    "checkpoint: wrong event-count arity");
            saw_ec = true;
        } else if (key == "f") {
            e.failed = u() != 0;
        } else if (key == "flr") {
            e.failureReason = static_cast<StopReason>(u());
        } else if (key == "fms") {
            e.failureMessage = unescapeField(v);
        } else if (key == "fjn") {
            e.failureForensics = unescapeField(v);
        } else if (key == "wx") {
            e.workerExit = unescapeField(v);
        } else if (key == "c") {
            // Checksum already verified above; nothing to consume.
        } else {
            throw CheckpointError(
                "checkpoint: unknown entry field '" + key + "'");
        }
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
