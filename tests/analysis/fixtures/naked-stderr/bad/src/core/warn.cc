// Fixture: a library diagnostic that bypasses core/log.
#include <iostream>

namespace demo {

void
warn()
{
    std::cerr << "warning: queue full\n";
}

} // namespace demo
