#!/usr/bin/env python3
"""Interleaved perfbench A/B of this checkout against a parent revision.

    python3 tools/perf_ab.py PARENT_REV --workload W [--pairs N]
                             [--seconds S] [--seed0 K]

Exports PARENT_REV with `git archive` into a temporary directory,
then runs N pairs of `perfbench/run.py --workload W --seed K+i
--seconds S --trace 0` there and in this checkout. Each tree's own
run.py builds that tree (with its own flags) before it runs, so the
first run of each side builds it and later runs rebuild nothing; the
build does not enter perfbench's timings. Pair i runs the parent
first when i is even and this checkout first when i is odd, so slow
spells of the host hit both sides alike. --seconds defaults to
BENCHMARK.json's run_seconds. W is a workload of BENCHMARK.json or
perfbench's hand-run `sweep-paper` (perfbench/README.md).

It prints every run's end-to-end metrics as it goes. Then, for every
end-to-end metric of BENCHMARK.json, it prints each side's median and
quartiles, the change of the median, the metric's bound, and how many
pairs this checkout won. A metric passes the gain rule of a
performance claim when this checkout won at least 9 of every 10 pairs
and its median beats the parent's by more than the parent's
interquartile range. The last line of standard output is that summary
as one JSON object.

Exit status: 0 when every run was `correct` with no failed simulation
(whatever the timings say), 1 when a run was not, or did not report, 2
on bad arguments. The uncommitted state of this checkout is what runs
as the change; its build goes to .bench_build/ as with run.py.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def usage_error(parser, message):
    parser.print_usage(sys.stderr)
    print("perf_ab.py: error: %s" % message, file=sys.stderr)
    sys.exit(2)


def parse_args(argv, benchmark):
    workloads = [w["name"] for w in benchmark["workloads"]]
    workloads.append("sweep-paper")
    ap = argparse.ArgumentParser(
        prog="perf_ab.py",
        description="Interleaved perfbench A/B against a parent revision.")
    ap.add_argument("parent", metavar="PARENT_REV",
                    help="git revision to compare against")
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--pairs", type=int, default=10,
                    help="interleaved parent/change pairs (default 10)")
    ap.add_argument("--seconds", type=float,
                    default=float(benchmark["run_seconds"]),
                    help="seconds per run (default: BENCHMARK.json's "
                         "run_seconds)")
    ap.add_argument("--seed0", type=int, default=1,
                    help="seed of pair 0; pair i uses seed0 + i")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        usage_error(ap, "--pairs must be >= 1")
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        usage_error(ap, "--seconds must be a positive number")
    if args.seed0 < 0:
        usage_error(ap, "--seed0 must be >= 0")
    rev = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
         args.parent + "^{commit}"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if rev.returncode != 0:
        usage_error(ap, "not a commit: %s" % args.parent)
    args.commit = rev.stdout.strip()
    return args


def run_once(tree, args, seed):
    """One perfbench run in @p tree; its JSON result, or None."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(args, benchmark, results):
    """Print the per-metric table; return it as a dict."""
    print("\n%s, %d pairs, %g s per run, seeds %d..%d, parent %s"
          % (args.workload, args.pairs, args.seconds, args.seed0,
             args.seed0 + args.pairs - 1, args.commit[:12]))
    print("%-12s %28s %28s %8s %6s %5s  %s"
          % ("metric", "parent q1/median/q3", "change q1/median/q3",
             "median", "bound", "wins", "gain rule"))
    summary = {}
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        lower = metric["better"] == "lower"
        parent = [r["parent"]["metrics"][name]["value"] for r in results]
        change = [r["change"]["metrics"][name]["value"] for r in results]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        wins = sum(1 for p, c in zip(parent, change)
                   if (c < p if lower else c > p))
        gap = (pmed - cmed) if lower else (cmed - pmed)
        holds = wins * 10 >= 9 * len(results) and gap > pq3 - pq1
        rel = (cmed - pmed) / pmed if pmed else 0.0
        print("%-12s %28s %28s %+7.1f%% %5.0f%% %2d/%-2d  %s"
              % (name, "%.4g/%.4g/%.4g" % (pq1, pmed, pq3),
                 "%.4g/%.4g/%.4g" % (cq1, cmed, cq3), 100 * rel,
                 100 * metric["bound"], wins, len(results),
                 "holds" if holds else "does not hold"))
        summary[name] = {
            "parent": {"q1": pq1, "median": pmed, "q3": pq3},
            "change": {"q1": cq1, "median": cmed, "q3": cq3},
            "median_change": rel, "wins": wins, "gain_rule": holds}
    return summary


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    args = parse_args(argv, benchmark)
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        parent_tree = os.path.join(tmp, "parent")
        os.mkdir(parent_tree)
        archive = subprocess.Popen(
            ["git", "-C", ROOT, "archive", args.commit],
            stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", parent_tree],
                       stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            print("perf_ab.py: git archive failed", file=sys.stderr)
            return 1
        trees = {"parent": parent_tree, "change": ROOT}
        results = []
        bad = 0
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else (
                "change", "parent")
            pair = {}
            for side in order:
                res = run_once(trees[side], args, seed)
                ok = (res is not None and res.get("correct") is True
                      and res.get("failed") == 0)
                if not ok:
                    bad += 1
                    print("perf_ab.py: pair %d (seed %d): %s run not "
                          "correct: %s" % (i, seed, side, res),
                          file=sys.stderr)
                pair[side] = res
                if res is not None and "metrics" in res:
                    print("pair %d seed %d %-6s %s" % (
                        i, seed, side, " ".join(
                            "%s=%.6g" % (m["name"],
                                         res["metrics"][m["name"]]["value"])
                            for m in benchmark["end_to_end"])),
                          flush=True)
            if all(pair[s] is not None and "metrics" in pair[s]
                   for s in trees):
                results.append(pair)
        metrics = report(args, benchmark, results) if results else {}
        print(json.dumps({
            "workload": args.workload, "parent": args.commit,
            "pairs": len(results), "seconds": args.seconds,
            "seeds": [args.seed0, args.seed0 + args.pairs - 1],
            "correct": bad == 0, "metrics": metrics}, sort_keys=True))
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
