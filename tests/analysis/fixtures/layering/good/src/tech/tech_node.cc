// Fixture: tech includes base.
#include "tech/tech_node.hh"

#include "base/check.hh"
