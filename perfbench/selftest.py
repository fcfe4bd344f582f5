#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny run length.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed, then, for every workload
(those BENCHMARK.json lists and sweep-paper, which is run by hand):
  - an untraced run prints every end-to-end metric with its unit, and a
    traced run every per-layer metric, ending in the one-line JSON result;
  - every run is correct, and the traced run's replay matches;
  - exact counters repeat across two traced runs with the same seed;
  - another seed changes the digests, so the seed reaches the program;
  - a seed past the recorded range simulates its recorded counterpart
    and is checked against its reference;
  - the traced run writes a loadable Chrome trace and layer file.
Then checks that a run against a tampered reference is incorrect, and
that the benchmark fails, quickly and without a result, in a directory
that holds only BENCHMARK.json and the benchmark itself.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import make_reference
import run

SECONDS = "0.1"
# Seed N simulates seed N modulo the number of recorded seeds.
REFERENCE_SEEDS = len(make_reference.SEEDS)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
EXACT_PREFIXES = ("sim.events.", "sim.cycles", "router.flit_hops",
                  "net.flits_ejected", "net.packets_ejected",
                  "core.sweep.points", "core.sweep.attempts",
                  "power.events_per_hop", "power.replay_match")

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what, flush=True)


def bench(workload, seed, trace, cwd=run.ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return out


def result(workload, seed, trace, expected):
    """The parsed result of one run, checked for shape and correctness."""
    out = bench(workload, seed, trace)
    tag = "%s seed %d trace %d" % (workload, seed, trace)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
    check(out.returncode == 0, tag + ": exit code %d" % out.returncode)
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    check(set(res) == RESULT_KEYS, tag + ": result keys %s" % sorted(res))
    check(res["correct"] is True and res["failed"] == 0,
          tag + ": incorrect run")
    check(isinstance(res["attempted"], int) and res["attempted"] >= 1,
          tag + ": attempted %r" % res["attempted"])
    metrics = res["metrics"]
    check(set(metrics) == {m["name"] for m in expected},
          tag + ": metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"],
              tag + ": %s unit %r" % (m["name"], got.get("unit")))
        check(isinstance(got.get("value"), (int, float)),
              tag + ": %s value %r" % (m["name"], got.get("value")))
        # The printed table names the metric beside its unit as well.
        check(any(l.split()[:1] == [m["name"]] and m["unit"] in l.split()
                  for l in lines[:-1]),
              tag + ": %s not printed with its unit" % m["name"])
    digest = next(l.split()[1] for l in lines if l.startswith("digests:"))
    return metrics, digest


def check_spec(spec):
    """BENCHMARK.json's keys, names, units and bounds are well formed."""
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$").match
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$").match
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "spec: top-level keys")
    check(1 <= spec["run_seconds"] <= 60, "spec: run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "spec: workload count")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and name_ok(w["name"]) and
              0 < len(w["why"]) <= 200 and "\n" not in w["why"],
              "spec: workload %s" % w.get("name"))
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    check(len(names) == len(set(names)), "spec: duplicate metric names")
    for m in metrics:
        keys = {"name", "unit", "better"}
        if m in spec["end_to_end"]:
            keys.add("bound")
            check(0 < m.get("bound", 0) <= 0.25,
                  "spec: %s bound" % m["name"])
        check(set(m) == keys and name_ok(m["name"]) and
              unit_ok(m["unit"]) and m["better"] in ("lower", "higher"),
              "spec: metric %s" % m.get("name"))
    check({"name": "setup_s", "unit": "s", "better": "lower",
           "bound": max(m["bound"] for m in spec["end_to_end"])}
          in spec["end_to_end"], "spec: setup_s with the largest bound")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    run.build()
    for w in make_reference.WORKLOADS:
        print("workload " + w, flush=True)
        e2e, digest_e2e = result(w, 1, 0, spec["end_to_end"])
        check(all(v["value"] > 0 for v in e2e.values()),
              w + ": an end-to-end metric is not positive")
        layers_a, digest_a = result(w, 1, 1, spec["per_layer"])
        layers_b, digest_b = result(w, 1, 1, spec["per_layer"])
        _, digest_c = result(w, 2, 0, spec["end_to_end"])
        check(digest_a == digest_b, w + ": same seed, different digests")
        check(digest_a != digest_c, w + ": seed 2 did not change digests")
        _, digest_far = result(w, 1 + REFERENCE_SEEDS, 0, spec["end_to_end"])
        check(digest_far == digest_e2e,
              w + ": seed %d did not simulate seed 1" % (1 + REFERENCE_SEEDS))
        for name in layers_a:
            if name.startswith(EXACT_PREFIXES):
                check(layers_a[name]["value"] == layers_b[name]["value"],
                      w + ": exact counter %s differs between runs" % name)
        check(layers_a["power.replay_match"]["value"] == 1,
              w + ": replay does not match the run's energy")
        base = os.path.join(run.OUT, w)
        with open(base + ".trace.json") as f:
            trace = json.load(f)
        check(len(trace["traceEvents"]) > 0 and
              all(e["ph"] == "X" for e in trace["traceEvents"]),
              w + ": trace has no complete events")
        with open(base + ".layers.json") as f:
            layers = json.load(f)
        check(all("samples" in m for m in layers["metrics"].values()),
              w + ": layer file lacks sample counts")

    out = bench("no-such-workload", 1, 0)
    check(out.returncode != 0, "an unknown workload did not fail")

    # One wrong count in the reference of the seed that seed 65 folds
    # into must make the run incorrect.
    tampered = os.path.join(run.ROOT, ".bench_build", "selftest-reference")
    shutil.rmtree(tampered, ignore_errors=True)
    shutil.copytree(os.path.join(run.HERE, "reference"), tampered)
    path = os.path.join(tampered, "kernel-vc16.txt")
    with open(path) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        fields = line.split()
        if fields[:1] == ["1"]:
            fields[2] = str(int(fields[2]) + 1)
            lines[i] = " ".join(fields)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    out = subprocess.run(
        [run.BINARY, "--workload", "kernel-vc16",
         "--seed", str(1 + REFERENCE_SEEDS), "--seconds", SECONDS,
         "--trace", "0", "--reference", tampered, "--out", run.OUT],
        cwd=run.ROOT, env=run.bench_env(), capture_output=True, text=True,
        timeout=180)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    check(res["correct"] is False and res["failed"] == res["attempted"],
          "a tampered reference did not fail every run")
    shutil.rmtree(tampered)

    bare = os.path.join(run.ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    start = time.time()
    out = bench(spec["workloads"][0]["name"], 1, 0, cwd=bare)
    check(out.returncode != 0, "bare directory: exit code 0")
    check(not out.stdout.strip(), "bare directory: printed a result")
    check(time.time() - start < 180, "bare directory: too slow to fail")
    shutil.rmtree(bare)

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
