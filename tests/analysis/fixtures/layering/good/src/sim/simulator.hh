// Fixture: the kernel includes base and its own layer.
#ifndef ORION_SIM_SIMULATOR_HH
#define ORION_SIM_SIMULATOR_HH

#include "base/cancel.hh"
#include "base/profile.hh"
#include "sim/event.hh"

#endif // ORION_SIM_SIMULATOR_HH
