// Fixture: a net file including a header of the run layer, which in
// turn includes net: a cycle between the two layers.
#include "core/telemetry.hh"
#include "net/sampler.hh"
