/**
 * @file
 * Run manifests: one JSON document of provenance per sim/sweep run
 * (docs/OBSERVABILITY.md, "Run-level observability").
 *
 * A manifest answers "where did this CSV come from?" months later: the
 * config fingerprint (the same sweepFingerprint that guards checkpoint
 * journals), the build that produced the binary (compiler, flags, git
 * sha), the host it ran on, wall-clock bounds, how the run stopped,
 * and what it cost (getrusage CPU/RSS totals, including isolated
 * worker children). Everything in it is informational: manifests are
 * never read back by the simulator and never participate in
 * determinism contracts.
 *
 * CLIs write one with `--manifest-out FILE`; orion_sweep additionally
 * writes `<journal>.manifest.json` beside `--checkpoint`/`--resume`
 * journals so long runs are self-describing.
 */
#ifndef ORION_CORE_MANIFEST_HH
#define ORION_CORE_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/profile.hh"

namespace orion::core {

/// One simulator stage's share of sampled kernel wall time.
struct PhaseShare
{
    std::string name;
    double seconds = 0.0;
    double share = 0.0; ///< fraction of the sampled total, [0,1]
};

/**
 * Summarize @p profiler for the manifest: cycle phases share the
 * sampled total, run phases share the summed run-phase total.
 */
std::vector<PhaseShare> phaseShares(const PhaseProfiler& profiler);

/** Provenance and cost record for one CLI run. Fill via begin() /
 * finish(), serialize with toJson(). */
struct RunManifest
{
    std::string tool;           ///< "orion_sim" or "orion_sweep"
    std::string fingerprintHex; ///< sweepFingerprint, 16 hex chars
    std::uint64_t seed = 0;     ///< base seed
    unsigned seeds = 1;         ///< seeds per rate point
    std::uint64_t ratePoints = 1;

    std::uint64_t pointsTotal = 0;
    std::uint64_t pointsCompleted = 0;
    std::uint64_t pointsFailed = 0;
    std::uint64_t pointsFromCheckpoint = 0;

    std::string stopReason; ///< stopReasonName() or CLI outcome

    // Build/host provenance (filled by begin()).
    std::string compiler;
    std::string flags;
    std::string gitSha;
    std::string buildType;
    std::string host;
    int pid = 0;

    double startUnixSeconds = 0.0;
    double endUnixSeconds = 0.0;

    // getrusage totals (filled by finish()). maxrss is kilobytes.
    double userCpuSeconds = 0.0;
    double sysCpuSeconds = 0.0;
    long maxRssKb = 0;
    double childUserCpuSeconds = 0.0;
    double childSysCpuSeconds = 0.0;
    long childMaxRssKb = 0;

    /// Kernel phase profile (empty unless --profile-phases).
    std::vector<PhaseShare> phases;

    /** Start a manifest: stamps tool name, build info, host, pid and
     * the start wall time. */
    static RunManifest begin(std::string toolName);

    /** Close a manifest: stamps the end wall time, the stop reason and
     * getrusage(SELF) + getrusage(CHILDREN) totals. */
    void finish(std::string reason);

    /// Serialize as a pretty-printed JSON object.
    std::string toJson() const;
};

/** Write `contents` to `path` atomically: write to `path + ".tmp"`,
 * fsync, rename over `path`. Readers never observe a torn file (the
 * heartbeat writer reuses this). @throw std::runtime_error on I/O
 * failure. */
void writeFileAtomic(const std::string& path,
                     const std::string& contents);

} // namespace orion::core

#endif // ORION_CORE_MANIFEST_HH
