#include "core/isolate.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/clock.hh"

namespace orion::core {

namespace {

/** Keep at most the final @p cap bytes of @p tail + @p chunk. */
void
appendTail(std::string& tail, const char* chunk, std::size_t n,
           std::size_t cap)
{
    tail.append(chunk, n);
    if (tail.size() > cap)
        tail.erase(0, tail.size() - cap);
}

} // namespace

std::string
IsolateResult::describe() const
{
    if (interrupted)
        return "interrupted";
    if (timedOut)
        return "timeout (killed)";
    if (termSignal != 0)
        return "signal " + std::to_string(termSignal);
    if (exited)
        return "exit " + std::to_string(exitCode);
    return "unknown";
}

IsolateResult
runIsolated(const IsolateOptions& opts)
{
    if (opts.argv.empty())
        throw std::runtime_error("isolate: empty argv");

    // The child's argv is built here: allocating between fork and
    // exec is not async-signal-safe, and sweeps fork from worker
    // threads.
    std::vector<char*> argv;
    argv.reserve(opts.argv.size() + 1);
    for (const std::string& a : opts.argv)
        argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);

    int err_pipe[2];
    if (::pipe(err_pipe) != 0) {
        throw std::runtime_error(std::string("isolate: pipe: ") +
                                 std::strerror(errno));
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(err_pipe[0]);
        ::close(err_pipe[1]);
        throw std::runtime_error(std::string("isolate: fork: ") +
                                 std::strerror(errno));
    }

    if (pid == 0) {
        // Child: route stderr into the pipe, fence resources, exec.
        // Only async-signal-safe calls between fork and exec.
        ::close(err_pipe[0]);
        ::dup2(err_pipe[1], STDERR_FILENO);
        ::close(err_pipe[1]);
        if (opts.quietStdout) {
            const int devnull = ::open("/dev/null", O_WRONLY);
            if (devnull >= 0) {
                ::dup2(devnull, STDOUT_FILENO);
                ::close(devnull);
            }
        }
        if (opts.maxAddressSpaceBytes > 0) {
            struct rlimit lim;
            lim.rlim_cur = opts.maxAddressSpaceBytes;
            lim.rlim_max = opts.maxAddressSpaceBytes;
            ::setrlimit(RLIMIT_AS, &lim);
        }
        if (opts.maxCpuSeconds > 0) {
            struct rlimit lim;
            lim.rlim_cur = opts.maxCpuSeconds;
            lim.rlim_max = opts.maxCpuSeconds;
            ::setrlimit(RLIMIT_CPU, &lim);
        }
        ::execv(argv[0], argv.data());
        // exec failed: report on the (redirected) stderr and bail
        // with a code outside orion_sim's healthy range.
        const char* msg = "isolate: execv failed\n";
        ssize_t ignored = ::write(STDERR_FILENO, msg,
                                  std::strlen(msg));
        (void)ignored;
        ::_exit(127);
    }

    // Parent: drain the stderr pipe (non-blocking) while polling the
    // child, enforcing the wall-clock deadline.
    ::close(err_pipe[1]);
    const int flags = ::fcntl(err_pipe[0], F_GETFL, 0);
    ::fcntl(err_pipe[0], F_SETFL, flags | O_NONBLOCK);

    IsolateResult res;
    // Wall-clock by design: the kill-on-timeout watchdog bounds real
    // time and never feeds back into simulation results.
    const double start = monotonicSeconds();
    bool sent_term = false;
    bool sent_kill = false;
    double term_at = start;

    const auto drainStderr = [&] {
        char buf[1024];
        for (;;) {
            const ssize_t n = ::read(err_pipe[0], buf, sizeof buf);
            if (n <= 0)
                break;
            appendTail(res.stderrTail, buf,
                       static_cast<std::size_t>(n),
                       opts.stderrTailBytes);
        }
    };

    for (;;) {
        int status = 0;
        // wait4 = waitpid + the child's rusage, which is the only
        // point the kernel reports a dead child's CPU time and peak
        // RSS (per-point resource accounting).
        struct rusage ru;
        std::memset(&ru, 0, sizeof ru);
        const pid_t done = ::wait4(pid, &status, WNOHANG, &ru);
        if (done == pid) {
            if (WIFEXITED(status)) {
                res.exited = true;
                res.exitCode = WEXITSTATUS(status);
            } else if (WIFSIGNALED(status)) {
                res.termSignal = WTERMSIG(status);
            }
            res.haveRusage = true;
            res.cpuSeconds =
                timevalSeconds(ru.ru_utime) + timevalSeconds(ru.ru_stime);
            res.maxRssKb = ru.ru_maxrss;
            break;
        }
        if (done < 0 && errno != EINTR)
            break;

        drainStderr();

        const double now = monotonicSeconds();
        if (opts.cancel != nullptr && !sent_term &&
            opts.cancel->cancelled()) {
            res.interrupted = true;
            ::kill(pid, SIGTERM);
            sent_term = true;
            term_at = now;
        }
        if (opts.timeoutSeconds > 0.0 && !sent_term &&
            now - start >= opts.timeoutSeconds) {
            res.timedOut = true;
            ::kill(pid, SIGTERM);
            sent_term = true;
            term_at = now;
        }
        // SIGTERM grace period: one second for the child to flush,
        // then SIGKILL.
        if (sent_term && !sent_kill && now - term_at >= 1.0) {
            ::kill(pid, SIGKILL);
            sent_kill = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    drainStderr();
    ::close(err_pipe[0]);
    return res;
}

} // namespace orion::core
