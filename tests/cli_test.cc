/**
 * @file
 * Tests for the command-line front end: option parsing, preset and
 * override composition, error reporting, report rendering, and the
 * agreement of each tool's --help with the flags it takes.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/cli.hh"
#include "core/model_cli.hh"

namespace {

using namespace orion;
using namespace orion::cli;

TEST(CliParse, DefaultsToVc16Preset)
{
    const Options o = parse({});
    EXPECT_EQ(o.network.net.vcs, 2u);
    EXPECT_EQ(o.network.net.bufferDepth, 8u);
    EXPECT_DOUBLE_EQ(o.traffic.injectionRate, 0.05);
    EXPECT_FALSE(o.csv);
    EXPECT_FALSE(o.helpRequested);
}

TEST(CliParse, HelpShortCircuits)
{
    EXPECT_TRUE(parse({"--help"}).helpRequested);
    EXPECT_TRUE(parse({"-h"}).helpRequested);
    // Even with other (possibly bad) options after it.
    EXPECT_TRUE(parse({"--help", "--bogus"}).helpRequested);
    EXPECT_TRUE(parse({"--help", "--bogus"}, Tool::Sweep).helpRequested);
    EXPECT_FALSE(usage().empty());
}

TEST(CliParse, PresetSelection)
{
    EXPECT_EQ(parse({"--preset", "wh64"}).network.net.routerKind,
              net::RouterKind::Wormhole);
    EXPECT_EQ(parse({"--preset", "cb"}).network.net.routerKind,
              net::RouterKind::CentralBuffer);
    EXPECT_EQ(parse({"--preset", "xb"}).network.net.vcs, 16u);
    EXPECT_THROW(parse({"--preset", "nope"}), std::invalid_argument);
}

TEST(CliParse, OverridesComposeWithPreset)
{
    const Options o = parse({"--preset", "vc64", "--buffer", "16",
                             "--rate", "0.12", "--seed", "7"});
    EXPECT_EQ(o.network.net.vcs, 8u);
    EXPECT_EQ(o.network.net.bufferDepth, 16u);
    EXPECT_DOUBLE_EQ(o.traffic.injectionRate, 0.12);
    EXPECT_EQ(o.sim.seed, 7u);
}

TEST(CliParse, DimsAndMesh)
{
    const Options o = parse({"--dims", "8x8", "--mesh"});
    EXPECT_EQ(o.network.net.dims, (std::vector<unsigned>{8, 8}));
    EXPECT_FALSE(o.network.net.wrap);
    EXPECT_EQ(o.network.net.deadlock, router::DeadlockMode::None);

    const Options o3 = parse({"--dims", "2x3x4", "--vcs", "2",
                              "--deadlock", "dateline"});
    EXPECT_EQ(o3.network.net.dims, (std::vector<unsigned>{2, 3, 4}));

    EXPECT_THROW(parse({"--dims", "4xx4"}), std::invalid_argument);
    EXPECT_THROW(parse({"--dims", "abc"}), std::invalid_argument);
}

TEST(CliParse, Patterns)
{
    EXPECT_EQ(parse({"--pattern", "tornado"}).traffic.pattern,
              net::TrafficPattern::Tornado);
    EXPECT_EQ(parse({"--pattern", "hotspot", "--hotspot", "9",
                     "--hotspot-frac", "0.4"})
                  .traffic.hotspotFraction,
              0.4);
    EXPECT_THROW(parse({"--pattern", "nope"}), std::invalid_argument);
}

TEST(CliParse, RejectsUnknownAndMalformed)
{
    EXPECT_THROW(parse({"--bogus"}), std::invalid_argument);
    EXPECT_THROW(parse({"--rate"}), std::invalid_argument);
    EXPECT_THROW(parse({"--rate", "fast"}), std::invalid_argument);
    EXPECT_THROW(parse({"--sample", "-3"}), std::invalid_argument);
}

TEST(CliParse, ValidatesComposedConfig)
{
    // Individually fine options composing into an invalid network
    // must be rejected at parse time.
    EXPECT_THROW(parse({"--preset", "wh64", "--vcs", "2"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"--rate", "1.7"}), std::invalid_argument);
    EXPECT_THROW(parse({"--preset", "wh64", "--buffer", "4"}),
                 std::invalid_argument);
}

TEST(CliParse, TraceFileErrorsSurface)
{
    EXPECT_THROW(parse({"--pattern", "trace", "--trace",
                        "/nonexistent/file.txt"}),
                 std::runtime_error);
    EXPECT_THROW(parse({"--pattern", "trace"}), std::invalid_argument);
}

TEST(CliReport, TextReportContainsKeyNumbers)
{
    Options o = parse({"--sample", "400", "--rate", "0.05"});
    o.sim.maxCycles = 100000;
    Simulation s(o.network, o.traffic, o.sim);
    const Report r = s.run();
    const std::string text = formatReport(o, r);
    EXPECT_NE(text.find("completed"), std::string::npos);
    EXPECT_NE(text.find("latency mean"), std::string::npos);
    EXPECT_NE(text.find("network power"), std::string::npos);
}

TEST(CliReport, CsvReportRoundTrips)
{
    Options o = parse({"--sample", "400", "--rate", "0.05", "--csv"});
    o.sim.maxCycles = 100000;
    Simulation s(o.network, o.traffic, o.sim);
    const Report r = s.run();
    const std::string csv = formatCsvReport(o, r);
    // Header + one data row.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
    EXPECT_NE(csv.find("rate,completed,deadlock"), std::string::npos);
    EXPECT_NE(csv.find("0.0500,1,0"), std::string::npos);
}

TEST(CliParse, ArbiterInjectionTieBreakOptions)
{
    const Options o = parse({"--arbiter", "rr", "--injection", "spread",
                             "--tie-break", "prefer-wrap"});
    EXPECT_EQ(o.network.net.arbiterKind,
              router::ArbiterKind::RoundRobin);
    EXPECT_EQ(o.network.net.injection,
              net::InjectionPolicy::SpreadVcs);
    EXPECT_EQ(o.network.net.tieBreak, net::TieBreak::PreferWrap);

    EXPECT_THROW(parse({"--arbiter", "x"}), std::invalid_argument);
    EXPECT_THROW(parse({"--injection", "x"}), std::invalid_argument);
    EXPECT_THROW(parse({"--tie-break", "x"}), std::invalid_argument);
}

TEST(CliParse, FaultInjectionFlags)
{
    const Options o = parse({"--link-ber", "1e-6", "--link-outage",
                             "1000:2000:3", "--link-outage", "500:600",
                             "--fault-seed", "99", "--retry-limit",
                             "4", "--retry-backoff", "16"});
    EXPECT_DOUBLE_EQ(o.sim.fault.linkBitErrorRate, 1e-6);
    ASSERT_EQ(o.sim.fault.outages.size(), 2u);
    EXPECT_EQ(o.sim.fault.outages[0].start, 1000u);
    EXPECT_EQ(o.sim.fault.outages[0].end, 2000u);
    EXPECT_EQ(o.sim.fault.outages[0].link, 3);
    EXPECT_EQ(o.sim.fault.outages[1].link, -1); // injector picks
    EXPECT_EQ(o.sim.fault.faultSeed, 99u);
    EXPECT_EQ(o.sim.fault.retryLimit, 4u);
    EXPECT_EQ(o.sim.fault.retryBackoffCycles, 16u);
    EXPECT_TRUE(o.sim.fault.enabled());
    EXPECT_FALSE(parse({}).sim.fault.enabled());
}

TEST(CliParse, FaultFlagsRejectInvalidValues)
{
    EXPECT_THROW(parse({"--link-ber", "1.5"}), std::invalid_argument);
    EXPECT_THROW(parse({"--link-ber", "-0.1"}), std::invalid_argument);
    EXPECT_THROW(parse({"--link-outage", "2000:1000"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"--link-outage", "junk"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"--retry-limit", "50"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"--retry-backoff", "0"}),
                 std::invalid_argument);
}

TEST(CliReport, FaultStatsAppearWhenFaultsInjected)
{
    Options o = parse({"--sample", "400", "--rate", "0.05",
                       "--link-ber", "5e-6"});
    o.sim.maxCycles = 100000;
    Simulation s(o.network, o.traffic, o.sim);
    const Report r = s.run();
    ASSERT_TRUE(r.completed);
    const std::string text = formatReport(o, r);
    EXPECT_NE(text.find("faults"), std::string::npos);
    EXPECT_NE(text.find("retransmitted"), std::string::npos);

    const std::string csv = formatCsvReport(o, r);
    EXPECT_NE(csv.find("stop_reason"), std::string::npos);
    EXPECT_NE(csv.find("completed"), std::string::npos);

    // Fault lines stay out of clean-run reports.
    Options clean = parse({"--sample", "400", "--rate", "0.05"});
    clean.sim.maxCycles = 100000;
    Simulation cs(clean.network, clean.traffic, clean.sim);
    const std::string ctext = formatReport(clean, cs.run());
    EXPECT_EQ(ctext.find("retransmitted"), std::string::npos);
}

TEST(CliParse, SpeculativeFlag)
{
    EXPECT_FALSE(parse({}).network.net.speculative);
    EXPECT_TRUE(parse({"--speculative"}).network.net.speculative);
}

TEST(CliParse, BreakdownFlag)
{
    EXPECT_TRUE(parse({"--breakdown"}).breakdown);
}

TEST(RateSpec, ParsesEvenlySpacedRates)
{
    const auto rates = parseRateSpec("0.02:0.10:5");
    ASSERT_EQ(rates.size(), 5u);
    EXPECT_DOUBLE_EQ(rates.front(), 0.02);
    EXPECT_DOUBLE_EQ(rates.back(), 0.10);
    EXPECT_NEAR(rates[2], 0.06, 1e-12);
}

TEST(RateSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseRateSpec("abc"), std::invalid_argument);
    EXPECT_THROW(parseRateSpec("0.1:0.05:4"), std::invalid_argument);
    EXPECT_THROW(parseRateSpec("0:0.1:4"), std::invalid_argument);
    EXPECT_THROW(parseRateSpec("0.01:0.1:1"), std::invalid_argument);
    EXPECT_THROW(parseRateSpec("0.01:0.1:4x"), std::invalid_argument);
    EXPECT_THROW(parseRateSpec("0.01:0.1"), std::invalid_argument);
}

TEST(CliParse, SurvivabilityFlags)
{
    const Options o = parse({"--point-timeout", "2.5",
                             "--report-out", "out.entry",
                             "--debug-segv-rate", "0.04"});
    EXPECT_DOUBLE_EQ(o.pointTimeoutSeconds, 2.5);
    EXPECT_EQ(o.reportOut, "out.entry");
    EXPECT_DOUBLE_EQ(o.sim.debugSegvRate, 0.04);

    // Defaults: no deadline, no report.
    const Options d = parse({});
    EXPECT_DOUBLE_EQ(d.pointTimeoutSeconds, 0.0);
    EXPECT_TRUE(d.reportOut.empty());
    EXPECT_LT(d.sim.debugSegvRate, 0.0);
}

TEST(CliParse, SurvivabilityFlagsRejectInvalidValues)
{
    EXPECT_THROW(parse({"--point-timeout", "0"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"--point-timeout", "-1"}),
                 std::invalid_argument);
}

/** What parse() throws for @p args as @p tool's command line, or ""
 * when it accepts them. */
std::string
parseError(const std::vector<std::string>& args, Tool tool)
{
    try {
        parse(args, tool);
    } catch (const std::exception& e) {
        return e.what();
    }
    return "";
}

TEST(CliSweep, JobsFlagAndRetiredFlags)
{
    EXPECT_EQ(parse({"--jobs", "4"}, Tool::Sweep).jobs, 4u);
    // Default: all cores.
    EXPECT_EQ(parse({}, Tool::Sweep).jobs, 0u);
    EXPECT_EQ(parseError({"--jobs", "0"}, Tool::Sweep),
              "orion_sweep: --jobs: must be >= 1 (--help for usage)");
    EXPECT_EQ(parseError({"--jobs", "4294967296"}, Tool::Sweep),
              "orion_sweep: --jobs: out of range: '4294967296' "
              "(--help for usage)");

    // Retry is the stop table's rule and the manifest's refresh period
    // a constant: their flags are gone.
    for (const char* flag : {"--point-retries", "--point-backoff-ms",
                             "--heartbeat-interval"}) {
        for (const Tool tool : {Tool::Sim, Tool::Sweep}) {
            EXPECT_NE(parseError({flag, "1"}, tool)
                          .find(std::string("unknown option '") + flag),
                      std::string::npos)
                << flag;
        }
    }
}

TEST(CliSweep, GridAndCrossFlagChecks)
{
    const Options o = parse({"--rates", "0.02:0.08:4", "--seeds", "3",
                             "--isolate", "--isolate-mem", "512",
                             "--manifest-out", "m.json", "--progress"},
                            Tool::Sweep);
    EXPECT_EQ(o.rates.size(), 4u);
    EXPECT_EQ(o.seeds, 3u);
    EXPECT_TRUE(o.isolate);
    EXPECT_EQ(o.isolateMemMb, 512u);
    EXPECT_EQ(o.manifestOut, "m.json");
    EXPECT_TRUE(o.progress);
    EXPECT_EQ(parse({}, Tool::Sweep).rates.size(), 10u);

    const auto error = [](const std::vector<std::string>& args) {
        return parseError(args, Tool::Sweep);
    };
    EXPECT_EQ(error({"--seeds", "0"}),
              "orion_sweep: --seeds must be >= 1 (--help for usage)");
    EXPECT_NE(error({"--rates", "0.01:0.02:50000", "--seeds", "3"})
                  .find("50000 rates x 3 seeds is more than the 100000 "
                        "cells a sweep may hold"),
              std::string::npos);
    EXPECT_NE(error({"--checkpoint", "a", "--resume", "b"})
                  .find("mutually exclusive"),
              std::string::npos);
    EXPECT_NE(error({"--resume", "j", "--metrics-dir", "m"})
                  .find("not journaled"),
              std::string::npos);
    EXPECT_NE(error({"--isolate", "--trace-dir", "t"})
                  .find("--isolate cannot be combined"),
              std::string::npos);
    EXPECT_NE(error({"--isolate-cpu", "5"}).find("require --isolate"),
              std::string::npos);
}

TEST(CliParse, EachToolRejectsTheOthersFlags)
{
    for (const char* flag : {"--rate", "--csv", "--breakdown",
                             "--report-out", "--metrics-out",
                             "--trace-out"}) {
        EXPECT_EQ(parseError({flag, "1"}, Tool::Sweep),
                  std::string("orion_sweep: ") + flag +
                      " is an orion_sim option (--help for usage)");
    }
    for (const char* flag : {"--jobs", "--seeds", "--checkpoint"}) {
        EXPECT_EQ(parseError({flag, "1"}, Tool::Sim),
                  std::string("orion_sim: ") + flag +
                      " is an orion_sweep option (--help for usage)");
    }
    EXPECT_EQ(parseError({"--bogus"}, Tool::Sweep),
              "orion_sweep: unknown option '--bogus' (--help for usage)");
}

TEST(CliSweep, WorkersGetTheCellFlagsOnly)
{
    const std::vector<std::string> args = {
        "--preset", "vc64", "--jobs", "2", "--seeds", "2", "--isolate",
        "--point-timeout", "5", "--log-out", "l.jsonl",
        "--link-ber", "1e-6", "--mesh", "--resources", "--seed", "7"};
    ASSERT_NO_THROW(parse(args, Tool::Sweep));
    EXPECT_EQ(workerArgs(args),
              (std::vector<std::string>{"--preset", "vc64",
                                        "--point-timeout", "5",
                                        "--link-ber", "1e-6", "--mesh",
                                        "--seed", "7"}));
}

/** Every --flag @p text names, once each. */
std::set<std::string>
flagsNamed(const std::string& text)
{
    static const std::regex flag("--[a-z][a-z0-9-]*");
    std::set<std::string> out;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), flag);
         it != std::sregex_iterator(); ++it)
        out.insert(it->str());
    return out;
}

TEST(CliHelp, EachToolsHelpNamesExactlyTheFlagsItTakes)
{
    const std::set<std::string> sim = flagsNamed(usage(Tool::Sim));
    const std::set<std::string> sweep = flagsNamed(usage(Tool::Sweep));
    std::set<std::string> all = sim;
    all.insert(sweep.begin(), sweep.end());
    EXPECT_EQ(sim.size(), 43u);
    EXPECT_EQ(sweep.size(), 50u);
    EXPECT_EQ(usage(Tool::Sim).rfind("usage: orion_sim ", 0), 0u);
    EXPECT_EQ(usage(Tool::Sweep).rfind("usage: orion_sweep ", 0), 0u);
    for (const Tool tool : {Tool::Sim, Tool::Sweep}) {
        const std::set<std::string>& named =
            tool == Tool::Sim ? sim : sweep;
        for (const std::string& flag : all) {
            // A malformed value draws a value error from a flag the
            // tool takes, and a flag error from one it does not.
            const std::string err = parseError({flag, "?"}, tool);
            const bool refused =
                err.find("unknown option '" + flag + "'") !=
                    std::string::npos ||
                err.find(flag + " is an orion_") != std::string::npos;
            EXPECT_EQ(refused, named.count(flag) == 0) << flag << ": " << err;
        }
    }
}

TEST(CliHelp, ModelHelpNamesExactlyTheKeysEachComponentTakes)
{
    // Component names start a line; the keys they take follow.
    std::map<std::string, std::set<std::string>> taken;
    std::set<std::string> all;
    std::istringstream in(modelUsage());
    std::string line;
    std::string component;
    std::getline(in, line);
    EXPECT_EQ(line.rfind("usage: orion_models ", 0), 0u);
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != ' ')
            component = line;
        for (const std::string& key : flagsNamed(line)) {
            taken[component].insert(key);
            all.insert(key);
        }
    }
    EXPECT_EQ(taken.size(), 6u);
    for (const auto& [name, keys] : taken) {
        for (const std::string& key : all) {
            std::string err;
            try {
                runModelQuery({name, key, "?"});
            } catch (const std::exception& e) {
                err = e.what();
            }
            const bool refused =
                err.find("does not take " + key + " (") != std::string::npos;
            EXPECT_EQ(refused, keys.count(key) == 0)
                << name << " " << key << ": " << err;
        }
    }
}

TEST(CliParse, ObservabilityFlags)
{
    const Options o = parse({"--log-out", "run.jsonl",
                             "--log-level", "debug",
                             "--manifest-out", "run.manifest.json",
                             "--profile-phases"});
    EXPECT_EQ(o.logOut, "run.jsonl");
    EXPECT_EQ(o.logLevel, "debug");
    EXPECT_EQ(o.manifestOut, "run.manifest.json");
    EXPECT_TRUE(o.sim.profilePhases);

    // Defaults: everything off, byte-identical to the pre-logger CLI.
    const Options d = parse({});
    EXPECT_TRUE(d.logOut.empty());
    EXPECT_EQ(d.logLevel, "info");
    EXPECT_TRUE(d.manifestOut.empty());
    EXPECT_FALSE(d.sim.profilePhases);

    EXPECT_THROW(parse({"--log-level", "verbose"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"--log-out"}), std::invalid_argument);
    EXPECT_THROW(parse({"--manifest-out"}), std::invalid_argument);
}

TEST(CliParse, FlagsThatShapeAnAbsentOutputAreRefused)
{
    const auto refused = [](const std::vector<std::string>& args,
                            Tool tool, const std::string& needs) {
        const std::string err = parseError(args, tool);
        EXPECT_NE(err.find(args.front() + " needs " + needs),
                  std::string::npos)
            << err;
    };
    refused({"--sample-interval", "10"}, Tool::Sim, "--metrics-out");
    refused({"--sample-interval", "10"}, Tool::Sweep, "--metrics-dir");
    refused({"--trace-capacity", "64"}, Tool::Sim, "--trace-out");
    refused({"--trace-capacity", "64"}, Tool::Sweep, "--trace-dir");
    refused({"--profile-phases"}, Tool::Sim,
            "--manifest-out, --metrics-out or --trace-out");
    // orion_sweep's manifest carries no phase gauges.
    refused({"--profile-phases", "--manifest-out", "m.json"}, Tool::Sweep,
            "--metrics-dir or --trace-dir");
    refused({"--log-level", "debug"}, Tool::Sim, "--log-out");
    refused({"--log-level", "info"}, Tool::Sweep, "--log-out");

    // With their output each is accepted.
    for (const std::vector<std::string>& ok :
         {std::vector<std::string>{"--sample-interval", "10",
                                   "--metrics-dir", "m"},
          {"--trace-capacity", "64", "--trace-dir", "t"},
          {"--profile-phases", "--metrics-dir", "m"},
          {"--log-level", "warn", "--log-out", "l"}})
        EXPECT_EQ(parseError(ok, Tool::Sweep), "");
    EXPECT_EQ(parseError({"--profile-phases", "--manifest-out", "m.json"},
                         Tool::Sim),
              "");
}

TEST(CliParse, FilesOfOneRunMustDiffer)
{
    EXPECT_EQ(parseError({"--checkpoint", "x", "--manifest-out", "x"},
                         Tool::Sweep),
              "orion_sweep: --checkpoint and --manifest-out name the same "
              "file 'x' (--help for usage)");
    EXPECT_EQ(parseError({"--resume", "x", "--log-out", "./x"},
                         Tool::Sweep),
              "orion_sweep: --log-out and --resume name the same file "
              "'x' (--help for usage)");
    // The default manifest sits beside the journal.
    const Options o = parse({"--checkpoint", "j"}, Tool::Sweep);
    EXPECT_EQ(o.manifestOut, "j.manifest.json");
    EXPECT_NE(parseError({"--checkpoint", "j", "--log-out",
                          "j.manifest.json"},
                         Tool::Sweep)
                  .find("--log-out and the run manifest name the same "
                        "file"),
              std::string::npos);
    // Each manifest write truncates PATH.tmp before renaming it over
    // PATH, so that staging file is one of the run's files too.
    EXPECT_EQ(parseError({"--checkpoint", "run.tmp", "--manifest-out",
                          "run"},
                         Tool::Sweep),
              "orion_sweep: --checkpoint and the run manifest's staging "
              "file name the same file 'run.tmp' (--help for usage)");
    EXPECT_NE(parseError({"--checkpoint", "j", "--log-out",
                          "j.manifest.json.tmp"},
                         Tool::Sweep)
                  .find("--log-out and the run manifest's staging file "
                        "name the same file"),
              std::string::npos);
    EXPECT_NE(parseError({"--metrics-out", "m.json.tmp",
                          "--manifest-out", "m.json"},
                         Tool::Sim)
                  .find("--metrics-out and the run manifest's staging "
                        "file name the same file"),
              std::string::npos);
    EXPECT_NE(parseError({"--metrics-out", "d/o", "--report-out",
                          "d/../d/o"},
                         Tool::Sim)
                  .find("--metrics-out and --report-out name the same"),
              std::string::npos);
    EXPECT_EQ(parseError({"--checkpoint", "a", "--log-out", "b",
                          "--manifest-out", "c"},
                         Tool::Sweep),
              "");
    // An empty value names no file.
    EXPECT_EQ(parseError({"--log-out", "", "--manifest-out", ""},
                         Tool::Sweep),
              "");
}

TEST(CliParse, ADanglingLinkNamesItsTarget)
{
    // Opening a link whose target does not exist yet creates the
    // target, so the link and the target are one file.
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(testing::TempDir()) / "orion_cli_links";
    fs::remove_all(dir);
    fs::create_directories(dir / "sub");
    fs::create_symlink("target", dir / "link");
    fs::create_symlink("../sub/../target", dir / "sub" / "up");
    fs::create_symlink("link", dir / "chain");
    const std::string target = (dir / "target").string();
    for (const char* name : {"link", "sub/up", "chain"}) {
        EXPECT_EQ(parseError({"--checkpoint", (dir / name).string(),
                              "--log-out", target},
                             Tool::Sweep),
                  "orion_sweep: --checkpoint and --log-out name the same "
                  "file '" + target + "' (--help for usage)")
            << name;
    }
    EXPECT_EQ(parseError({"--checkpoint", (dir / "link").string(),
                          "--log-out", (dir / "other").string()},
                         Tool::Sweep),
              "");
    fs::remove_all(dir);
}

TEST(CliParse, RateAcceptsExactHexfloat)
{
    // `orion_sweep --isolate` hands workers their rate as a hexfloat
    // so the double reconstructs bit-exactly.
    const Options o = parse({"--rate", "0x1.999999999999ap-5"});
    EXPECT_EQ(o.traffic.injectionRate, 0.05);
}

} // namespace
