#include "base/cancel.hh"

#include <csignal>

namespace orion::core {

namespace {

/** Process-wide interrupt state. Written by the signal handler, so it
 * is restricted to a volatile sig_atomic_t plus the lock-free atomic
 * inside g_interruptToken (tools/orion_lint.py signal-safety). */
volatile std::sig_atomic_t g_signal = 0;

CancelToken g_interruptToken;

extern "C" void
orionInterruptHandler(int signum)
{
    g_signal = signum;
    g_interruptToken.cancel(CancelCause::Interrupt);
}

} // namespace

CancelToken&
interruptToken() noexcept
{
    return g_interruptToken;
}

void
installInterruptHandlers() noexcept
{
    static_assert(std::atomic<int>::is_always_lock_free,
                  "signal handler requires a lock-free cancel flag");
    struct sigaction action = {};
    action.sa_handler = &orionInterruptHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // no SA_RESTART: interrupt blocking I/O too
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
}

int
interruptSignal() noexcept
{
    return static_cast<int>(g_signal);
}

} // namespace orion::core
