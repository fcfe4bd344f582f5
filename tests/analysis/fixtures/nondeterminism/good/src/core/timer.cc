// Fixture: a justified suppression for a wall-clock read that only
// measures, and a literal that merely names rand().
#include <chrono>

namespace demo {

const char* const kHelp = "never call rand() here";

double
elapsed()
{
    const auto t = std::chrono::steady_clock::now(); // lint-allow: nondeterminism -- timing only, never a result
    return std::chrono::duration<double>(t.time_since_epoch()).count();
}

} // namespace demo
