// Fixture: a live, justified suppression — the walk below really
// triggers unordered-iteration, so the lint-allow is earning its
// keep and must not be reported as stale.
#include <unordered_map>

namespace demo {

double
diagnosticSum(const std::unordered_map<int, double>& samples)
{
    double total = 0.0;
    for (const auto& entry : samples) // lint-allow: unordered-iteration -- order-insensitive diagnostic sum, never reported
        total += entry.second;
    return total;
}

} // namespace demo
