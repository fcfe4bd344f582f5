/**
 * @file
 * JSON string escaping, shared by every writer of JSON text (traces,
 * manifests, heartbeats, structured logs, forensics bundles).
 */

#ifndef ORION_BASE_JSON_HH
#define ORION_BASE_JSON_HH

#include <string>

namespace orion::report {

/** Escape @p s for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string& s);

} // namespace orion::report

#endif // ORION_BASE_JSON_HH
