// Fixture: every mutable member of the capability-holding class is
// either annotated or carries a justified suppression; a method that
// returns a std::function is not a member.
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
    std::function<void()> flushHook() const;

  private:
    core::Mutex mutex_;
    double total_ ORION_GUARDED_BY(mutex_);
    unsigned samples_ ORION_GUARDED_BY(mutex_);
    std::function<void()> onFlush_ ORION_GUARDED_BY(mutex_);
    unsigned scratch_; // lint-allow: unguarded -- ctor-only scratch, never shared
};

} // namespace demo
