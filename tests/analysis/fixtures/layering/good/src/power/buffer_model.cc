// Fixture: power includes tech.
#include "power/buffer_model.hh"

#include "tech/transistor.hh"
