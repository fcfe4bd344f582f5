// Fixture: an entry point includes the run layer and the kernel.
#include "core/simulation.hh"
#include "net/fault.hh"
