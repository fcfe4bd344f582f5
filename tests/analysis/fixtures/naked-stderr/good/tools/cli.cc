// Fixture: tools print results to stdout and route diagnostics
// through the logger.
#include <iostream>

namespace demo {
void diag(const char* message);
}

int
main(int argc, char**)
{
    if (argc > 2) {
        demo::diag("too many arguments");
        return 2;
    }
    std::cout << "ok\n";
    return 0;
}
