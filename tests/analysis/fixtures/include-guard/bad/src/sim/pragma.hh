// Fixture: #pragma once instead of a guard.
#pragma once

namespace demo {
int pragma();
}
