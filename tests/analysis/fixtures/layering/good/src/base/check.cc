// Fixture: the top layer includes only itself.
#include "base/check.hh"

#include <cstdlib>
