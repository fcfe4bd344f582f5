// Fixture: command-line entry points may print.
#include <iostream>

int
main()
{
    std::cout << "ok\n";
    return 0;
}
