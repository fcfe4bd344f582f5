// Fixture: a class holding a core::Mutex capability with two mutable
// members left unannotated, one of them a callback whose type spells a
// function signature.
#include <functional>

#define ORION_GUARDED_BY(x)

namespace core {

class Mutex
{
  public:
    void lock();
    void unlock();
};

} // namespace core

namespace demo {

class Ledger
{
  public:
    void add(double joules);

  private:
    core::Mutex mutex_;
    double total_ ORION_GUARDED_BY(mutex_);
    unsigned samples_;
    std::function<void()> onFlush_;
};

} // namespace demo
