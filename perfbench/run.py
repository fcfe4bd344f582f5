#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an orion checkout. The first call configures and
builds perfbench (and the orion library it links) under .bench_build/;
later calls rebuild only what changed. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON
result. Exits non-zero without a result when there is no orion source
tree to build.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")


def build():
    """Configure (once) and build the perfbench target; raise on failure."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise RuntimeError("no orion source tree: %s is missing" % needed)
    configured = any(os.path.isfile(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench"], check=True, stdout=sys.stderr)
    return BINARY


def bench_env():
    """The environment of a measured run: invariant checks at the
    library's default level, whatever the caller's shell selects."""
    env = dict(os.environ)
    env.pop("ORION_CHECK", None)
    return env


def main(argv):
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    cmd = [binary, "--reference", os.path.join(HERE, "reference"),
           "--out", OUT] + argv
    return subprocess.run(cmd, cwd=ROOT, env=bench_env()).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
