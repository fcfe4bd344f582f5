// Fixture: tools may read the wall clock to measure.
#include <chrono>

int
main()
{
    const auto start = std::chrono::steady_clock::now();
    return start.time_since_epoch().count() > 0 ? 0 : 1;
}
