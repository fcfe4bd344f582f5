// Fixture: the RNG may not seed from a clock; a clock read here is a
// finding like anywhere else outside base/clock.cc.
#include <chrono>

namespace demo {

unsigned long
clockSeed()
{
    return static_cast<unsigned long>(
        std::chrono::system_clock::now().time_since_epoch().count());
}

} // namespace demo
