// Fixture: a router sees faults only through the hooks interface
// (unlike the net layer's FaultInjector, which it never names).
#include "router/fault_hooks.hh"

namespace demo {

class Crossbar
{
  private:
    FaultHooks* hooks_ = nullptr;
};

} // namespace demo
