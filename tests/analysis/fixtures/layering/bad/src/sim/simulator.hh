// Fixture: the kernel pulling in the run layer above it.
#ifndef ORION_SIM_SIMULATOR_HH
#define ORION_SIM_SIMULATOR_HH

#include "base/cancel.hh"
#include "core/simulation.hh"
#include "sim/event.hh"

#endif // ORION_SIM_SIMULATOR_HH
