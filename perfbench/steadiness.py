#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--out FILE]

Runs every workload of BENCHMARK.json in two sets of ten runs, each run
BENCHMARK.json's run_seconds long and on its own seed (set A uses seeds
1..10, set B 11..20). The sets are interleaved: run i of set A and run
i of set B go back to back, in alternating order, and every workload
takes its turn before the next pair, so both sets see the same host
conditions. For each end-to-end metric and set it prints the median,
the quartiles and the spread: the interquartile range as a share of the
median. A metric is steady when every spread stays within its bound in
BENCHMARK.json (the target is a third of it), and set B's median is not
worse than set A's by more than the bound. Records nproc, the sweep's
jobs and the build provenance beside the numbers, and appends the
report to --out, so the file keeps every proof run. Exits non-zero if a
check fails.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
RUNS = 10


def one_run(workload, seed, seconds):
    """(metrics dict, header lines) of one benchmark run."""
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=run.ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: incorrect run: %s"
                           % (workload, seed, lines[-1]))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, lines[:2]


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def worse_by(first, second, better):
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open(BENCHMARK) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="also append the report to this file")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    run.build()
    report = []

    def say(line=""):
        print(line, flush=True)
        report.append(line)

    say("perfbench steadiness: %s UTC" %
        datetime.datetime.utcnow().strftime("%Y-%m-%d %H:%M"))
    say("nproc %d, %d runs per set, %g s per run, sets interleaved"
        % (len(os.sched_getaffinity(0)), RUNS, seconds))

    sets = {}
    header = {}
    for i in range(RUNS):
        for workload in workloads:
            pair = [(0, 1 + i), (1, RUNS + 1 + i)]
            for s, seed in (pair if i % 2 == 0 else pair[::-1]):
                values, head = one_run(workload, seed, seconds)
                header.setdefault(workload, head)
                for name, v in values.items():
                    sets.setdefault((workload, name, s), []).append(v)

    ok = True
    for workload in workloads:
        say()
        for line in header[workload]:
            say(line)
        say("%-12s %5s %14s %14s %14s %8s %8s %9s  %s"
            % ("metric", "set", "median", "q1", "q3", "spread", "bound",
               "B vs A", "verdict"))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in (0, 1):
                values = sets[(workload, name, s)]
                med, q1, q3, spread = summary(values)
                medians.append(med)
                verdict = ("steady" if spread < bound / 3 else
                           "within bound" if spread <= bound else
                           "TOO WIDE")
                ok = ok and spread <= bound
                drift = ""
                if s == 1:
                    worse = worse_by(medians[0], med, metric["better"])
                    drift = "%+.4f" % worse
                    if worse > bound:
                        verdict += " B WORSE"
                        ok = False
                say("%-12s %5s %14.6g %14.6g %14.6g %8.4f %8.3f %9s  %s"
                    % (name, "AB"[s], med, q1, q3, spread, bound, drift,
                       verdict))
    say()
    say("result: %s" % ("steady" if ok else "NOT steady"))
    if args.out:
        with open(args.out, "a") as f:
            f.write("\n".join(report) + "\n\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
