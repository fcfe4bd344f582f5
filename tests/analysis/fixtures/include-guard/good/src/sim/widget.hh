// Fixture: a library header guarded by its path below src/.
#ifndef ORION_SIM_WIDGET_HH
#define ORION_SIM_WIDGET_HH

namespace demo {
int widget();
}

#endif // ORION_SIM_WIDGET_HH
