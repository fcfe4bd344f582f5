// Fixture: router code printing its counters.
#include <cstdio>

namespace demo {

void
dumpFlits(unsigned flits)
{
    std::printf("flits %u\n", flits);
}

} // namespace demo
