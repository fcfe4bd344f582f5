// Fixture: the run layer may include every layer.
#include "core/simulation.hh"

#include "base/check.hh"
#include "net/network.hh"
