// Fixture: network code printing its counters.
#include <iostream>

namespace demo {

void
dumpDelivered(unsigned long delivered)
{
    std::cout << "delivered " << delivered << "\n";
}

} // namespace demo
