#include "core/manifest.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include "base/clock.hh"
#include "base/json.hh"
#include "core/build_info.hh"

namespace orion::core {

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
    m.startUnixSeconds = m.updatedUnixSeconds = unixSeconds();
    return m;
}

void
RunManifest::finish(std::string reason)
{
    finished = true;
    stopReason = std::move(reason);
    endUnixSeconds = updatedUnixSeconds = unixSeconds();
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
RunManifest::toJson(const telemetry::MetricsRegistry& metrics) const
{
    report::JsonWriter w;
    w.beginObject().field("schema", "orion-run-manifest-v3");
    w.field("tool", tool).field("fingerprint", fingerprintHex);
    w.field("seed", seed).field("seeds", seeds);
    w.field("rate_points", ratePoints).field("jobs", jobs);
    w.key("points").beginObject().field("total", pointsTotal);
    w.field("completed", pointsCompleted).field("failed", pointsFailed);
    w.field("from_checkpoint", pointsFromCheckpoint).endObject();
    w.field("finished", finished).field("stop_reason", stopReason);
    w.field("eta_s", etaSeconds).field("ema_point_s", emaPointSeconds);
    w.field("median_point_s", medianPointSeconds);
    w.key("workers").beginArray();
    for (const Worker& k : workers) {
        w.beginObject().field("slot", k.slot);
        w.field("rate_index", k.rateIndex).field("seed_index", k.seedIndex);
        w.field("attempt", k.attempt).field("cycles", k.cycles);
        w.field("running_s", k.runningSeconds).endObject();
    }
    w.endArray();
    w.key("build").beginObject().field("compiler", compiler);
    w.field("flags", flags).field("git_sha", gitSha);
    w.field("build_type", buildType).endObject();
    w.key("host").beginObject().field("name", host).field("pid", pid);
    w.endObject();
    w.key("time").beginObject().field("start_unix_s", startUnixSeconds);
    w.field("updated_unix_s", updatedUnixSeconds);
    w.field("end_unix_s", endUnixSeconds);
    w.field("wall_s", updatedUnixSeconds > startUnixSeconds
                          ? updatedUnixSeconds - startUnixSeconds
                          : 0.0);
    w.endObject();
    w.key("rusage").beginObject().field("user_s", userCpuSeconds);
    w.field("sys_s", sysCpuSeconds).field("maxrss_kb", maxRssKb);
    w.field("children_user_s", childUserCpuSeconds);
    w.field("children_sys_s", childSysCpuSeconds);
    w.field("children_maxrss_kb", childMaxRssKb).endObject();
    w.key("metrics");
    metrics.writeJson(w);
    return w.endObject().takeLine();
}

void
writeFileAtomic(const std::string& path, const std::string& contents)
{
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0) {
        throw IoError("cannot open '" + tmp + "' for writing: " +
                      std::strerror(errno));
    }
    std::size_t off = 0;
    while (off < contents.size()) {
        const ssize_t n = ::write(fd, contents.data() + off,
                                  contents.size() - off);
        if (n < 0) {
            ::close(fd);
            throw IoError("cannot write '" + tmp + "'");
        }
        off += static_cast<std::size_t>(n);
    }
    // fsync before rename so the replacement is never an empty file
    // after a crash (same discipline as the checkpoint journal).
    if (::fsync(fd) != 0 || ::close(fd) != 0)
        throw IoError("cannot sync '" + tmp + "'");
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw IoError("cannot rename '" + tmp + "' to '" + path + "'");
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

