#include "base/clock.hh"

#include <chrono>
#include <ctime>

#include <sys/time.h>

namespace orion::core {

double
monotonicSeconds() noexcept
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
unixSeconds() noexcept
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

double
threadCpuSeconds() noexcept
{
    timespec ts{};
    if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        return 0.0;
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
timevalSeconds(const timeval& tv) noexcept
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace orion::core
