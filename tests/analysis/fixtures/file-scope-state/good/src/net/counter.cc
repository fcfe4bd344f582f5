// Fixture: constants and file-static function declarations are
// re-entrant.
#include <vector>

namespace demo {

static const int kPorts = 5;
static constexpr double kScale = 0.5;
static int helper(int x);
static std::vector<int> buildTable(int n);

int
scaled(int x)
{
    return static_cast<int>(helper(x) * kScale) + kPorts;
}

} // namespace demo
