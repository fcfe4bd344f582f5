// Fixture: sim/rng.* is the one library file that may touch the
// platform's entropy and clocks.
#include <chrono>
#include <random>

namespace demo {

unsigned
entropy()
{
    std::random_device device;
    return device() ^ static_cast<unsigned>(
        std::chrono::steady_clock::now().time_since_epoch().count());
}

} // namespace demo
