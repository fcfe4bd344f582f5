// Fixture: library code printing to stdout directly.
#include <cstdio>
#include <iostream>

namespace demo {

void
printReport(int cycles, double watts)
{
    std::cout << cycles << "\n";
    std::printf("%f\n", watts);
    std::fprintf(stdout, "done\n");
}

} // namespace demo
