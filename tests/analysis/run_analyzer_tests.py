#!/usr/bin/env python3
"""Fixture tests for tools/orion_lint.py.

Every rule has a bad/ fixture root (must produce exactly the expected
findings, exit 1) and a good/ fixture root (must be clean, exit 0).
A file that is not valid UTF-8 must be an [encoding] finding, not a
crash, and usage errors must exit 2.
"""

import argparse
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

# (fixture dir, --rules value, findings per rule the bad root yields)
CASES = [
    # rand(), std::random_device and a chrono clock in src/sim, srand()
    # in a tool, a clock read in src/sim/rng.cc (only base/clock.cc may
    # read one) and a clock-helper call under src/net/.
    ("nondeterminism", "nondeterminism,unused-suppression",
     {"nondeterminism": 6}),
    ("naked-new", "naked-new", {"naked-new": 3}),
    ("file-scope-state", "file-scope-state", {"file-scope-state": 3}),
    ("include-guard", "include-guard", {"include-guard": 4}),
    ("stdout-in-library", "stdout-in-library", {"stdout-in-library": 3}),
    ("naked-stderr", "naked-stderr", {"naked-stderr": 3}),
    ("stat-printing", "stat-printing", {"stat-printing": 2}),
    # A router including net/fault.hh, a sim header including core/
    # and a net file including core/telemetry.hh.
    ("layering", "layering", {"layering": 3}),
    ("unordered-iteration", "unordered-iteration",
     {"unordered-iteration": 4}),
    ("rng-sharing", "rng-sharing", {"rng-sharing": 2}),
    ("raw-subscribe", "raw-subscribe", {"raw-subscribe": 2}),
    ("unguarded", "unguarded,unused-suppression", {"unguarded": 2}),
    ("signal-safety", "signal-safety", {"signal-safety": 2}),
    # Stale, unknown-rule and two reasonless suppressions, plus one in
    # the retired spelling, which also leaves its naked new reported.
    ("unused-suppression",
     "unordered-iteration,naked-new,unused-suppression",
     {"unused-suppression": 5, "naked-new": 1}),
]

FINDING_RE = re.compile(r"^\S+:\d+: \[([\w-]+)\] ", re.MULTILINE)

failures = []


def check(cond, label, proc=None):
    """Record one assertion; on failure show the tool's output."""
    print(f"  [{'ok' if cond else 'FAIL'}] {label}")
    if not cond:
        failures.append(label)
        if proc is not None:
            print(proc.stdout + proc.stderr)


def run(tool, *args):
    proc = subprocess.run([sys.executable, str(tool), *map(str, args)],
                          capture_output=True, text=True)
    return proc, Counter(FINDING_RE.findall(proc.stdout))


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--analyzer", required=True)
    ap.add_argument("--fixtures", required=True)
    args = ap.parse_args(argv)
    tool = Path(args.analyzer).resolve()
    fixtures = Path(args.fixtures).resolve()

    print("case every rule has a fixture:")
    proc, _ = run(tool, "--list-rules")
    listed = proc.stdout.split()
    check(proc.returncode == 0 and len(listed) == 14,
          f"--list-rules prints 14 rules (got {len(listed)})", proc)
    check(set(listed) == {name for name, _, _ in CASES},
          "CASES covers exactly the listed rules")

    for name, rules, expected in CASES:
        print(f"case {name}:")
        proc, found = run(tool, "--root", fixtures / name / "bad",
                          "--rules", rules)
        check(proc.returncode == 1 and found == Counter(expected),
              f"bad fixture yields {expected}, exit 1 (got "
              f"{dict(found)}, exit {proc.returncode})", proc)

        proc, found = run(tool, "--root", fixtures / name / "good",
                          "--rules", rules)
        check(proc.returncode == 0 and not found,
              f"good fixture is clean, exit 0 (got {dict(found)}, "
              f"exit {proc.returncode})", proc)

    print("case a file that is not valid UTF-8:")
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "src").mkdir()
        (Path(tmp) / "src" / "latin1.cc").write_bytes(
            b"// caf\xe9\nint x;\n")
        proc, found = run(tool, "--root", tmp)
        check(proc.returncode == 1 and found == Counter({"encoding": 1}),
              f"one [encoding] finding, exit 1 (got {dict(found)}, "
              f"exit {proc.returncode})", proc)

    print("case usage errors:")
    proc, _ = run(tool, "--root", fixtures / "does-not-exist")
    check(proc.returncode == 2,
          f"missing root exits 2 (got {proc.returncode})")
    proc, _ = run(tool, "--root", fixtures / "unguarded" / "good",
                  "--rules", "bogus-rule")
    check(proc.returncode == 2,
          f"unknown rule exits 2 (got {proc.returncode})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
