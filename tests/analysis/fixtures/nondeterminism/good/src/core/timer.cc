// Fixture: the run layer times itself through the base/clock helpers,
// and a literal that merely names rand() is not a call.
#include "base/clock.hh"

namespace demo {

const char* const kHelp = "never call rand() here";

double
elapsed(double start)
{
    return orion::core::monotonicSeconds() - start;
}

} // namespace demo
