// Fixture: a guard that does not match the header's path.
#ifndef ORION_SIM_RIGHT_HH
#define ORION_SIM_RIGHT_HH

namespace demo {
int wrong();
}

#endif // ORION_SIM_RIGHT_HH
