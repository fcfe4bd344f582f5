// Fixture: reporting code takes the stream it writes to.
#include <cstdio>
#include <ostream>

namespace demo {

void
writeReport(std::ostream& out, int cycles, double watts)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%f", watts);
    out << cycles << " " << buf << "\n";
}

} // namespace demo
