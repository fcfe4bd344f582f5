// Fixture: the unordered member is declared here, in the header, and
// walked in route_table.cc.
#include <cstdint>
#include <unordered_map>

namespace demo {

class RouteTable
{
  public:
    unsigned total() const;

  private:
    std::unordered_map<std::uint64_t, unsigned> attempts_;
};

} // namespace demo
