// Fixture: the logger backend owns the real stderr write.
#include <cstdio>

namespace demo {

void
emit(const char* line)
{
    std::fputs(line, stderr);
}

} // namespace demo
