/**
 * @file
 * Forensic snapshots: a JSON dump of network state taken when a run
 * fails (check failure, watchdog stall), so a failed sweep point can
 * be diagnosed after the sweep finishes. Format documented in
 * docs/ROBUSTNESS.md.
 */

#ifndef ORION_CORE_FORENSICS_HH
#define ORION_CORE_FORENSICS_HH

#include <string>

#include "core/simulation.hh"

namespace orion {

/**
 * Serialize the current state of @p sim as one compact JSON object
 * and a newline: {"reason", "cycle", "metrics": {name: value, ...}}.
 * The metrics are the network's state metrics
 * (net::registerNetworkMetrics) plus router.N.frozen_cycles. Non-scalar
 * extras follow where they exist: down_links (rerouting), wait_graph
 * (after a deadlock detection) and fault_log (the exact 64-bit hash
 * and the last 64 fault events).
 *
 * @p reason is a free-form description of why the snapshot was taken
 * (typically the check-failure diagnostic).
 */
std::string forensicSnapshot(Simulation& sim,
                             const std::string& reason);

} // namespace orion

#endif // ORION_CORE_FORENSICS_HH
