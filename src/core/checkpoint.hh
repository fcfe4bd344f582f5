/**
 * @file
 * Crash-safe sweep checkpoint journal (docs/ROBUSTNESS.md,
 * "Survivable runs").
 *
 * A long sweep appends one line per finished (rate, seed) cell to a
 * journal file; `orion_sweep --resume FILE` reloads the journal,
 * skips the finished cells, and merges the cached reports with the
 * freshly computed ones **bit-identically** to an uninterrupted run
 * at any --jobs. Three properties make that safe:
 *
 *  - **Binding.** The header line carries a 64-bit FNV-1a fingerprint
 *    over the full simulation configuration (network + tech + traffic
 *    + sim + fault schedule + sweep grid) plus a code-level
 *    determinism epoch. A journal never resumes a different
 *    configuration — a mismatch is a structured CheckpointError.
 *
 *  - **Exactness.** Every double in a cached Report is serialized as
 *    a C99 hexfloat ("%a"), which strtod round-trips bit-exactly, so
 *    re-rendering a cached report through report::fmt reproduces the
 *    same CSV bytes the live run would have printed.
 *
 *  - **Crash tolerance.** Each line ends with its own FNV-1a checksum
 *    and is fsync'd before the sweep moves on. On load, a corrupt or
 *    partial FINAL line is tolerated (the torn write of the crash —
 *    dropped, flagged via CheckpointLoad::truncatedTail); corruption
 *    anywhere earlier is a CheckpointError, never UB or a silent
 *    partial resume.
 *
 * Only the outcomes the stop table (core/report.hh) journals are
 * written: completed runs, cycle caps, watchdog stalls, unrecovered
 * deadlocks, check failures, worker crashes. Wall-clock outcomes —
 * StopReason::Deadline and StopReason::Interrupted — depend on machine
 * load, so those cells rerun on resume.
 */

#ifndef ORION_CORE_CHECKPOINT_HH
#define ORION_CORE_CHECKPOINT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "base/hash.hh"
#include "core/config.hh"
#include "core/sweep.hh"
#include "core/sync.hh"

namespace orion::core {

/** Structured journal failure: corruption before the final line, a
 * fingerprint/config mismatch, an unwritable path, or a malformed
 * entry. The message names the file, line, and cause. */
class CheckpointError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One journaled sweep cell: the (rate index, seed index) coordinate
 * in the sweep grid plus the cell itself. The journal keeps the
 * point's attempts, report, failure message and snapshot and worker
 * exit; a loaded point has only those set. */
struct CheckpointEntry
{
    std::uint64_t rateIndex = 0;
    std::uint64_t seedIndex = 0;
    SweepPoint point;
};

/// @name Exact double round-tripping
/// @{
/** Render @p v as a C99 hexfloat ("%a"): strtod parses it back to
 * the identical bit pattern, including negative zero and infinities
 * (NaN payloads collapse to a quiet NaN). */
std::string exactDouble(double v);

/** Parse an exactDouble rendering. @throw CheckpointError if @p s is
 * not a complete, valid rendering. */
double parseExactDouble(const std::string& s);
/// @}

/** @p v as 16 lowercase hex digits (checksum/fingerprint fields). */
std::string hex16(std::uint64_t v);

/**
 * Bump when a code change alters simulation results for a fixed
 * configuration and seed (routing, arbitration, power models, RNG
 * streams...). Journals written under a different epoch refuse to
 * resume instead of silently mixing incompatible results.
 *
 * Epoch 2: energy is evaluated from exact integer activity counts
 * (powers move in the last ulps; counts and latencies are unchanged).
 */
constexpr unsigned kDeterminismEpoch = 2;

/**
 * Fingerprint binding a journal to one sweep: hashes every
 * result-determining field of the configuration (network structure,
 * tech node, power-model knobs, traffic — including the full replay
 * trace when one is loaded — measurement protocol, fault schedule)
 * plus the sweep grid (@p rates, @p seeds) and kDeterminismEpoch.
 * Telemetry and cancellation settings are excluded: they never change
 * report bytes.
 */
std::uint64_t sweepFingerprint(const NetworkConfig& network,
                               const TrafficConfig& traffic,
                               const SimConfig& sim,
                               const std::vector<double>& rates,
                               unsigned seeds);

/// @name Entry wire format
/// @{
/** Serialize @p e as one journal line (no trailing newline): '|'-
 * separated key=value fields, %-escaped strings, hexfloat doubles,
 * terminated by a FNV-1a checksum field. */
std::string serializeEntry(const CheckpointEntry& e);

/** Parse one journal line. @throw CheckpointError on a checksum
 * mismatch, unknown shape, malformed field, or a failure flag (`f=`,
 * `flr=`) that disagrees with the stop reason (`sr=`). */
CheckpointEntry parseEntry(std::string_view line);
/// @}

/** A loaded journal. */
struct CheckpointLoad
{
    /** The header fingerprint (matches what the caller expected). */
    std::uint64_t fingerprint = 0;
    /** Entries in file order; duplicates for a coordinate are
     * possible after repeated resumes (last wins). */
    std::vector<CheckpointEntry> entries;
    /** The final line was torn (partial write at the crash) and was
     * dropped. Normal after a SIGKILL; worth a diagnostic line. */
    bool truncatedTail = false;
    /** File bytes up to the end of the last accepted line: the
     * header and every entry in `entries`, without a dropped tail. */
    std::uint64_t acceptedBytes = 0;
};

/**
 * Load and validate the journal at @p path against
 * @p expect_fingerprint.
 *
 * @throw CheckpointError when the file is unreadable, the header is
 * missing or malformed, the fingerprint differs (the configuration
 * changed — resuming would silently mix incompatible results), or
 * any line before the last is corrupt. A corrupt LAST line alone is
 * tolerated as a crash artifact.
 */
CheckpointLoad loadCheckpoint(const std::string& path,
                              std::uint64_t expect_fingerprint);

/**
 * The append side: one journal file, written line-wise with an
 * fsync per entry so every acknowledged append survives SIGKILL.
 * append() is thread-safe — sweep workers call it directly from the
 * parallel region as cells finish.
 */
class CheckpointJournal
{
  public:
    /**
     * Open @p path for appending. With @p resume false the file is
     * created (or truncated) and the fingerprint header written; with
     * @p resume true the file is validated as by loadCheckpoint, cut
     * back to its acceptedBytes (so a dropped torn or corrupt final
     * line cannot glue onto the next entry), and new entries append
     * after the existing ones.
     *
     * @throw CheckpointError when the file cannot be opened/written,
     * or, with @p resume, when loadCheckpoint rejects it.
     */
    CheckpointJournal(const std::string& path,
                      std::uint64_t fingerprint, bool resume);
    ~CheckpointJournal();

    CheckpointJournal(const CheckpointJournal&) = delete;
    CheckpointJournal& operator=(const CheckpointJournal&) = delete;

    /** Append one entry and fsync. Thread-safe.
     * @throw CheckpointError on write failure (e.g. ENOSPC). */
    void append(const CheckpointEntry& e) ORION_EXCLUDES(mutex_);

    const std::string& path() const { return path_; }

  private:
    /** Immutable after construction. */
    const std::string path_;
    core::Mutex mutex_;
    /** POSIX fd (O_APPEND), -1 once closed. */
    int fd_ ORION_GUARDED_BY(mutex_) = -1;
};

/** The header line (without newline) for @p fingerprint:
 * "#orion-checkpoint v1 fp=<hex16>". */
std::string checkpointHeader(std::uint64_t fingerprint);

} // namespace orion::core

#endif // ORION_CORE_CHECKPOINT_HH
