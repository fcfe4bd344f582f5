// Fixture: net includes the metrics registry from sim, below it.
#include "net/sampler.hh"

#include "router/router.hh"
#include "sim/telemetry.hh"
