// Fixture: mutable file-scope state that parallel sweep workers would
// share, including a callback whose type spells a signature.
#include <functional>
#include <vector>

namespace demo {

static int g_packets = 0;
thread_local std::vector<int> scratch;
static std::function<void()> g_onDrain;

int
count()
{
    return ++g_packets + static_cast<int>(scratch.size());
}

} // namespace demo
