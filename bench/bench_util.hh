/**
 * @file
 * Shared helpers for the figure-reproduction harnesses: environment
 * knobs for run size, and table emission of sweep results.
 *
 * Environment variables:
 *  - ORION_SAMPLE: packets in the measurement sample (default 10000,
 *    the paper's value; set lower for quick smoke runs)
 *  - ORION_MAX_CYCLES: post-warm-up cycle cap per point
 *  - ORION_SEED: RNG seed
 *  - ORION_JOBS: sweep worker threads (default: hardware concurrency;
 *    results are identical for any value — see SweepOptions::jobs)
 */

#ifndef ORION_BENCH_BENCH_UTIL_HH
#define ORION_BENCH_BENCH_UTIL_HH

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/cli.hh"
#include "core/config.hh"
#include "core/report.hh"
#include "core/simulation.hh"
#include "core/sweep.hh"

namespace orion::bench {

/** The environment variable @p name as an unsigned integer no greater
 * than @p max, or @p fallback when it is unset. A value cli::parseU64
 * rejects ("abc", "2e2", "-1", "", or one above @p max) ends the
 * harness with exit status 2. */
inline std::uint64_t
envU64(const char* name, std::uint64_t fallback,
       std::uint64_t max = UINT64_MAX)
{
    const char* v = std::getenv(name);
    if (v == nullptr)
        return fallback;
    try {
        return cli::parseU64(name, v, max);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
    }
}

inline SimConfig
defaultSimConfig()
{
    SimConfig s;
    s.warmupCycles = 1000;
    s.samplePackets = envU64("ORION_SAMPLE", 10000);
    s.maxCycles = envU64("ORION_MAX_CYCLES", 400000);
    s.seed = envU64("ORION_SEED", 1);
    return s;
}

/** Sweep execution knobs: ORION_JOBS worker threads, defaulting to
 * hardware concurrency (jobs = 0). */
inline SweepOptions
defaultSweepOptions()
{
    SweepOptions opts;
    opts.jobs = static_cast<unsigned>(envU64("ORION_JOBS", 0, UINT_MAX));
    return opts;
}

/** "0.150" style rate label. */
inline std::string
rateLabel(double rate)
{
    return report::fmt(rate, 3);
}

/** Latency cell: "-" once the run failed to complete (saturated). */
inline std::string
latencyCell(const Report& r)
{
    if (!r.completed)
        return r.deadlockSuspected ? "stall" : ">cap";
    return report::fmt(r.avgLatencyCycles, 1);
}

inline std::string
powerCell(const Report& r)
{
    return report::fmt(r.networkPowerWatts, 2);
}

} // namespace orion::bench

#endif // ORION_BENCH_BENCH_UTIL_HH
