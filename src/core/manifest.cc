#include "core/manifest.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include "base/clock.hh"
#include "base/json.hh"
#include "core/build_info.hh"
#include "core/log.hh"

namespace orion::core {

namespace {

void
appendKv(std::string& out, const char* key, const std::string& value,
         bool raw)
{
    out += '"';
    out += key;
    out += "\": ";
    if (raw) {
        out += value;
    } else {
        out += '"';
        out += report::jsonEscape(value);
        out += '"';
    }
}

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::vector<PhaseShare>
phaseShares(const PhaseProfiler& profiler)
{
    using Phase = PhaseProfiler::Phase;
    constexpr unsigned kFirstRunPhase = static_cast<unsigned>(Phase::Warmup);
    double cycle_total = 0.0;
    double run_total = 0.0;
    for (unsigned i = 0; i < PhaseProfiler::kNumPhases; ++i) {
        const double s = profiler.seconds(static_cast<Phase>(i));
        if (i < kFirstRunPhase)
            cycle_total += s;
        else
            run_total += s;
    }
    std::vector<PhaseShare> out;
    out.reserve(PhaseProfiler::kNumPhases);
    for (unsigned i = 0; i < PhaseProfiler::kNumPhases; ++i) {
        const auto phase = static_cast<Phase>(i);
        PhaseShare s;
        s.name = PhaseProfiler::phaseName(phase);
        s.seconds = profiler.seconds(phase);
        const double total =
            i < kFirstRunPhase ? cycle_total : run_total;
        s.share = total > 0.0 ? s.seconds / total : 0.0;
        out.push_back(std::move(s));
    }
    return out;
}

RunManifest
RunManifest::begin(std::string toolName)
{
    RunManifest m;
    m.tool = std::move(toolName);
    const BuildInfo& b = buildInfo();
    m.compiler = b.compiler;
    m.flags = b.flags;
    m.gitSha = b.gitSha;
    m.buildType = b.buildType;
    m.host = hostName();
    m.pid = static_cast<int>(::getpid());
    m.startUnixSeconds = unixSeconds();
    return m;
}

void
RunManifest::finish(std::string reason)
{
    stopReason = std::move(reason);
    endUnixSeconds = unixSeconds();
    rusage self{};
    if (::getrusage(RUSAGE_SELF, &self) == 0) {
        userCpuSeconds = timevalSeconds(self.ru_utime);
        sysCpuSeconds = timevalSeconds(self.ru_stime);
        maxRssKb = self.ru_maxrss; // kilobytes on Linux
    }
    rusage children{};
    if (::getrusage(RUSAGE_CHILDREN, &children) == 0) {
        childUserCpuSeconds = timevalSeconds(children.ru_utime);
        childSysCpuSeconds = timevalSeconds(children.ru_stime);
        childMaxRssKb = children.ru_maxrss;
    }
}

std::string
RunManifest::toJson() const
{
    std::string j;
    j.reserve(1024);
    j += "{\n  ";
    appendKv(j, "schema", "orion-run-manifest-v1", false);
    j += ",\n  ";
    appendKv(j, "tool", tool, false);
    j += ",\n  ";
    appendKv(j, "fingerprint", fingerprintHex, false);
    j += ",\n  ";
    appendKv(j, "seed", std::to_string(seed), true);
    j += ",\n  ";
    appendKv(j, "seeds", std::to_string(seeds), true);
    j += ",\n  ";
    appendKv(j, "rate_points", std::to_string(ratePoints), true);
    j += ",\n  \"points\": { ";
    appendKv(j, "total", std::to_string(pointsTotal), true);
    j += ", ";
    appendKv(j, "completed", std::to_string(pointsCompleted), true);
    j += ", ";
    appendKv(j, "failed", std::to_string(pointsFailed), true);
    j += ", ";
    appendKv(j, "from_checkpoint", std::to_string(pointsFromCheckpoint),
             true);
    j += " },\n  ";
    appendKv(j, "stop_reason", stopReason, false);
    j += ",\n  \"build\": { ";
    appendKv(j, "compiler", compiler, false);
    j += ", ";
    appendKv(j, "flags", flags, false);
    j += ", ";
    appendKv(j, "git_sha", gitSha, false);
    j += ", ";
    appendKv(j, "build_type", buildType, false);
    j += " },\n  \"host\": { ";
    appendKv(j, "name", host, false);
    j += ", ";
    appendKv(j, "pid", std::to_string(pid), true);
    j += " },\n  \"time\": { ";
    appendKv(j, "start_unix_s", fmtDouble(startUnixSeconds), true);
    j += ", ";
    appendKv(j, "end_unix_s", fmtDouble(endUnixSeconds), true);
    j += ", ";
    appendKv(j, "wall_s",
             fmtDouble(endUnixSeconds > startUnixSeconds
                           ? endUnixSeconds - startUnixSeconds
                           : 0.0),
             true);
    j += " },\n  \"rusage\": { ";
    appendKv(j, "user_s", fmtDouble(userCpuSeconds), true);
    j += ", ";
    appendKv(j, "sys_s", fmtDouble(sysCpuSeconds), true);
    j += ", ";
    appendKv(j, "maxrss_kb", std::to_string(maxRssKb), true);
    j += ", ";
    appendKv(j, "children_user_s", fmtDouble(childUserCpuSeconds),
             true);
    j += ", ";
    appendKv(j, "children_sys_s", fmtDouble(childSysCpuSeconds), true);
    j += ", ";
    appendKv(j, "children_maxrss_kb", std::to_string(childMaxRssKb),
             true);
    j += " },\n  \"phases\": [";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        j += i == 0 ? "\n" : ",\n";
        j += "    { ";
        appendKv(j, "name", phases[i].name, false);
        j += ", ";
        appendKv(j, "seconds", fmtDouble(phases[i].seconds), true);
        j += ", ";
        appendKv(j, "share", fmtDouble(phases[i].share), true);
        j += " }";
    }
    j += phases.empty() ? "]\n" : "\n  ]\n";
    j += "}\n";
    return j;
}

void
writeFileAtomic(const std::string& path, const std::string& contents)
{
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0)
        throw std::runtime_error("cannot open '" + tmp + "'");
    std::size_t off = 0;
    while (off < contents.size()) {
        const ssize_t n = ::write(fd, contents.data() + off,
                                  contents.size() - off);
        if (n < 0) {
            ::close(fd);
            throw std::runtime_error("cannot write '" + tmp + "'");
        }
        off += static_cast<std::size_t>(n);
    }
    // fsync before rename so the replacement is never an empty file
    // after a crash (same discipline as the checkpoint journal).
    if (::fsync(fd) != 0 || ::close(fd) != 0)
        throw std::runtime_error("cannot sync '" + tmp + "'");
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("cannot rename '" + tmp + "' to '" +
                                 path + "'");
    // fsync the containing directory too: the rename lives in the
    // directory's data, and without this a power loss (not just a
    // process death) can forget the replacement entirely.
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int dfd = ::open(dir.empty() ? "/" : dir.c_str(),
                           O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        // Best-effort: some filesystems refuse directory fsync;
        // the write itself already succeeded.
        ::fsync(dfd);
        ::close(dfd);
    }
}

void
writeFile(const std::string& path, const std::string& contents)
{
    errno = 0;
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw IoError("cannot open '" + path + "' for writing: " +
                      std::strerror(errno));
    }
    out << contents;
    out.flush();
    out.close();
    // badbit/failbit after flush+close covers ENOSPC, EPIPE on a
    // FIFO, quota errors... anything the kernel only reports on
    // write-back.
    if (!out) {
        throw IoError("i/o error writing '" + path +
                      "' (disk full or stream closed?)");
    }
}

void
flushStdout()
{
    if (std::fflush(stdout) != 0 || std::ferror(stdout))
        throw IoError("i/o error writing the report to stdout");
}

} // namespace orion::core

