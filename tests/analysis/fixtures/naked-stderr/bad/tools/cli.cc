// Fixture: tool diagnostics written straight to stderr.
#include <cstdio>

int
main(int argc, char**)
{
    if (argc > 2) {
        std::fprintf(stderr, "too many arguments\n");
        std::fputs("usage: cli [FILE]\n", stderr);
        return 2;
    }
    return 0;
}
