// Fixture: the net layer owns the injector.
#include "net/fault.hh"

namespace demo {

net::FaultInjector* activeInjector = nullptr;

} // namespace demo
