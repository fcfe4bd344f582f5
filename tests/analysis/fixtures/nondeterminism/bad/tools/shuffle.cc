// Fixture: a tool may time itself, but its randomness must still be
// seedable through sim::Rng.
#include <cstdlib>

int
main()
{
    std::srand(1);
    return 0;
}
