// Fixture: keyed lookup into an unordered container is fine; only
// iteration leaks the implementation-defined order.
#include <unordered_map>

namespace demo {

class LatencyTable
{
  public:
    double
    sampleFor(int node) const
    {
        return samples_.count(node) != 0 ? samples_.at(node) : 0.0;
    }

    double
    sampleOr(int node, double fallback) const
    {
        const auto it = samples_.find(node);
        return it != samples_.end() ? it->second : fallback;
    }

    void
    record(int node, double value)
    {
        samples_[node] = value;
    }

  private:
    std::unordered_map<int, double> samples_;
};

} // namespace demo
