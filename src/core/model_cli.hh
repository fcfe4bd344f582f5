/**
 * @file
 * Standalone power-model query front end.
 *
 * The paper (Section 3.2): "We will be distributing our power models
 * ... either as a separate power analysis tool, or as a plug-in to
 * other network simulators." orion_models is that separate tool: it
 * evaluates one Table 2-4 component model for arbitrary parameters
 * and prints its capacitances, per-operation energies and area.
 * `orion_models --help` lists the components and the keys each one
 * takes; model_cli.cc declares them once.
 */

#ifndef ORION_CORE_MODEL_CLI_HH
#define ORION_CORE_MODEL_CLI_HH

#include <string>
#include <vector>

namespace orion::cli {

/**
 * Evaluate one model query (COMPONENT, then its keys) and return its
 * table (text, or CSV with --csv). Throws std::invalid_argument,
 * prefixed "orion_models: ", on an unknown component, a key the
 * component does not take, or a bad value. An empty/--help query
 * returns the usage text.
 */
std::string runModelQuery(const std::vector<std::string>& args);

/** The usage/help text for orion_models, generated from the
 * components' key declarations. */
std::string modelUsage();

} // namespace orion::cli

#endif // ORION_CORE_MODEL_CLI_HH
