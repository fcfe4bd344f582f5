// Fixture: ownership through smart pointers and containers; the words
// new and delete in comments, literals and deleted members are fine.
#include <memory>
#include <vector>

namespace demo {

class Pool
{
  public:
    Pool() = default;
    Pool(const Pool&) = delete;

    std::unique_ptr<int>
    make()
    {
        return std::make_unique<int>(3); // never new int(3)
    }

    const char* name() const { return "new delete pool"; }

  private:
    std::vector<int> values_;
};

} // namespace demo
