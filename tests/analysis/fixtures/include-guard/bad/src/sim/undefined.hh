// Fixture: the guard is tested but never defined.
#ifndef ORION_SIM_UNDEFINED_HH

namespace demo {
int undefined();
}

#endif // ORION_SIM_UNDEFINED_HH
