// Fixture: bench harnesses are outside the rule.
#include <iostream>

int
main()
{
    std::cerr << "timing run\n";
    return 0;
}
