// Fixture: a router sees faults only through the hooks interface.
#include "power/crossbar_model.hh"
#include "router/fault_hooks.hh"
#include "sim/event.hh"
