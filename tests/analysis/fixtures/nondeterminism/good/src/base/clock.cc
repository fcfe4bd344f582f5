// Fixture: base/clock.cc is the one library file that reads host
// clocks.
#include <chrono>
#include <ctime>

namespace demo {

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec);
}

} // namespace demo
