// Fixture: outside src/ the guard spells the top directory too.
#ifndef ORION_TOOLS_CLI_ARGS_HH
#define ORION_TOOLS_CLI_ARGS_HH

namespace demo {
int parseArgs(int argc, char** argv);
}

#endif // ORION_TOOLS_CLI_ARGS_HH
