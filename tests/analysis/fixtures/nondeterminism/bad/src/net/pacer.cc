// Fixture: a simulation layer reading host time through the clock
// helper; the kernel must stay clock-free.
#include "base/clock.hh"

namespace demo {

bool
late(double deadline)
{
    return orion::core::monotonicSeconds() > deadline;
}

} // namespace demo
