// Fixture: a keyed lookup through a `using` alias of an unordered_map
// compares against end() without walking the container.
#include <cstdint>
#include <unordered_map>

namespace demo {

using RouteIndex = std::unordered_map<std::uint64_t, const unsigned*>;

unsigned
routeFor(const RouteIndex& index, std::uint64_t key)
{
    const auto hit = index.find(key);
    if (hit != index.end())
        return *hit->second;
    return 0;
}

} // namespace demo
