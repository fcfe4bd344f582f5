// Fixture: walks the declaring file cannot see — a member declared in
// the same-stem header, and a parameter whose type is a `using` alias
// of an unordered_map.
#include "route_table.hh"

#include <cstdint>
#include <unordered_map>

namespace demo {

using RouteIndex = std::unordered_map<std::uint64_t, const unsigned*>;

unsigned
RouteTable::total() const
{
    unsigned sum = 0;
    for (const auto& entry : attempts_)
        sum += entry.second;
    return sum;
}

unsigned
countRoutes(const RouteIndex& index)
{
    unsigned n = 0;
    for (const auto& entry : index)
        n += *entry.second;
    return n;
}

} // namespace demo
