// Fixture: a router reaching into the net layer's fault machinery.
#include "net/fault.hh"

namespace demo {

class Crossbar
{
  private:
    net::FaultInjector* injector_ = nullptr;
};

} // namespace demo
