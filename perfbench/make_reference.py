#!/usr/bin/env python3
"""Record the reference digests the benchmark checks every run against.

    python3 perfbench/make_reference.py

Runs one untraced iteration of each workload for each of the seeds the
benchmark simulates (0-63, kReferenceSeeds in reference.hh) and writes
perfbench/reference/<workload>.txt. Record only from code whose
simulated results are the accepted ones: a speed change must reproduce
these digests, and a change that moves simulated results on purpose
re-records them in the same commit.
"""

import os
import subprocess
import sys

import run

FIELDS = ("seed case cycles window_flits packets sample_injected "
          "sample_ejected avg_latency_cycles network_power_w")
WORKLOADS = ("kernel-k16n2", "kernel-vc16", "sweep-paper")
SEEDS = range(64)  # kReferenceSeeds in reference.hh


def record(binary, workload, seeds):
    lines = []
    for seed in seeds:
        out = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--record-reference"],
            cwd=run.ROOT, env=run.bench_env(), check=True,
            capture_output=True, text=True).stdout
        lines += out.splitlines()
        print("%s seed %d: %d cases" % (workload, seed,
                                         len(out.splitlines())),
              file=sys.stderr)
    return lines


def main():
    binary = run.build()
    os.makedirs(os.path.join(run.HERE, "reference"), exist_ok=True)
    for workload in WORKLOADS:
        lines = record(binary, workload, SEEDS)
        path = os.path.join(run.HERE, "reference", workload + ".txt")
        with open(path, "w") as f:
            f.write("# %s reference digests (doubles as hexfloats)\n"
                    % workload)
            f.write("# " + FIELDS + "\n")
            f.write("\n".join(lines) + "\n")
        print("wrote %s" % path, file=sys.stderr)


if __name__ == "__main__":
    main()
