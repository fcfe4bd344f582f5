/**
 * @file
 * The run manifest: the one JSON document that describes a sim/sweep
 * run from start to finish (docs/OBSERVABILITY.md, "Run manifest").
 *
 * A manifest answers "where did this CSV come from?" months later: the
 * config fingerprint (the same sweepFingerprint that guards checkpoint
 * journals), the build that produced the binary (compiler, flags, git
 * sha), the host it ran on, wall-clock bounds, how the run stopped,
 * and what it cost (getrusage CPU/RSS totals, including isolated
 * worker children). While a sweep runs, the same document says how
 * far it has got: cell counts, an ETA and the cells in flight
 * (core/progress.hh keeps it live). Everything in it is
 * informational: manifests are never read back by the simulator and
 * never participate in determinism contracts.
 *
 * CLIs write one with `--manifest-out FILE`; orion_sweep writes
 * `<journal>.manifest.json` by default beside `--checkpoint`/`--resume`
 * journals so long runs are self-describing.
 */
#ifndef ORION_CORE_MANIFEST_HH
#define ORION_CORE_MANIFEST_HH

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/telemetry.hh"

namespace orion::core {

/** Provenance, progress and cost record for one CLI run. Fill via
 * begin() / finish(), serialize with toJson(). */
struct RunManifest
{
    /** An estimate not known yet; the document spells it null. */
    static constexpr double kUnknown =
        std::numeric_limits<double>::quiet_NaN();

    /** A sweep cell in flight. */
    struct Worker
    {
        unsigned slot = 0;
        std::uint64_t rateIndex = 0;
        std::uint64_t seedIndex = 0;
        unsigned attempt = 1;
        std::uint64_t cycles = 0;
        double runningSeconds = 0.0;
    };

    std::string tool;           ///< "orion_sim" or "orion_sweep"
    std::string fingerprintHex; ///< sweepFingerprint, 16 hex chars
    std::uint64_t seed = 0;     ///< base seed
    unsigned seeds = 1;         ///< seeds per rate point
    std::uint64_t ratePoints = 1;
    unsigned jobs = 1; ///< worker threads

    std::uint64_t pointsTotal = 0;
    /// Finished cells that did not fail (cached ones included).
    std::uint64_t pointsCompleted = 0;
    std::uint64_t pointsFailed = 0;
    std::uint64_t pointsFromCheckpoint = 0;

    bool finished = false;
    std::string stopReason = "running"; ///< stopReasonName() or CLI outcome

    // Live estimates (core/progress.hh).
    double etaSeconds = kUnknown;
    double emaPointSeconds = kUnknown;
    double medianPointSeconds = kUnknown;
    std::vector<Worker> workers;

    // Build/host provenance (filled by begin()).
    std::string compiler;
    std::string flags;
    std::string gitSha;
    std::string buildType;
    std::string host;
    int pid = 0;

    double startUnixSeconds = 0.0;
    double updatedUnixSeconds = 0.0;
    double endUnixSeconds = kUnknown;

    // getrusage totals (filled by finish()). maxrss is kilobytes.
    double userCpuSeconds = 0.0;
    double sysCpuSeconds = 0.0;
    long maxRssKb = 0;
    double childUserCpuSeconds = 0.0;
    double childSysCpuSeconds = 0.0;
    long childMaxRssKb = 0;

    /** Start a manifest: stamps tool name, build info, host, pid and
     * the start wall time. */
    static RunManifest begin(std::string toolName);

    /** Close a manifest: marks it finished and stamps the end wall
     * time, the stop reason and getrusage(SELF) + getrusage(CHILDREN)
     * totals. */
    void finish(std::string reason);

    /** Serialize as one compact JSON object and a newline. Its
     * `metrics` object holds @p metrics' current values (orion_sim's
     * phase gauges under --profile-phases). */
    std::string toJson(const telemetry::MetricsRegistry& metrics =
                           telemetry::MetricsRegistry{}) const;
};

/** An output the run could not deliver (orion_sim and orion_sweep
 * exit 4): the run itself was healthy. */
class IoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Write `contents` to `path` atomically: write to `path + ".tmp"`,
 * fsync, rename over `path`, fsync the directory. Readers never
 * observe a torn file. @throw IoError on I/O failure. */
void writeFileAtomic(const std::string& path,
                     const std::string& contents);

/** Write `contents` to `path`, checking the stream after flush and
 * close. @throw IoError when the file cannot be opened or written. */
void writeFile(const std::string& path, const std::string& contents);

/** Flush stdout. @throw IoError if any write to it failed. */
void flushStdout();

} // namespace orion::core

#endif // ORION_CORE_MANIFEST_HH
