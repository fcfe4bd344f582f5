// Fixture: a router reaching up into the net layer's fault machinery
// instead of going through router/fault_hooks.hh.
#include "net/fault.hh"
#include "router/fault_hooks.hh"

namespace demo {

class Crossbar
{
  private:
    net::FaultInjector* injector_ = nullptr;
};

} // namespace demo
