// Fixture: unseeded randomness and a wall-clock read in library code.
#include <chrono>
#include <cstdlib>
#include <random>

namespace demo {

int
pickPort()
{
    return std::rand() % 4;
}

unsigned
freshSeed()
{
    std::random_device device;
    return device();
}

double
stamp()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace demo
