#!/usr/bin/env python3
"""Fixture tests for tools/orion_analyze.py.

Each rule has a bad/ fixture root (must produce exactly the expected
findings, all of the expected rule, exit 1) and a good/ fixture root
(must be clean, exit 0). Usage errors must exit 2. The text engine is
forced so results are identical on GCC-only hosts and on CI.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

# (fixture dir, --rules value, expected rule of every bad finding,
#  expected bad finding count)
CASES = [
    ("unordered-iteration", "unordered-iteration",
     "unordered-iteration", 2),
    ("rng-sharing", "rng-sharing", "rng-sharing", 2),
    ("fp-accum-drift", "fp-accum-drift", "fp-accum-drift", 2),
    ("raw-subscribe", "raw-subscribe", "raw-subscribe", 2),
    ("unguarded", "unguarded,unused-suppression", "unguarded", 1),
    ("signal-safety", "signal-safety", "signal-safety", 2),
    ("unused-suppression", "unordered-iteration,unused-suppression",
     "unused-suppression", 3),
]

failures = []


def check(cond, label):
    marker = "ok" if cond else "FAIL"
    print(f"  [{marker}] {label}")
    if not cond:
        failures.append(label)


def run(analyzer, root, rules, json_path):
    proc = subprocess.run(
        [sys.executable, str(analyzer), "--root", str(root),
         "--rules", rules, "--engine", "text", "--json",
         str(json_path)],
        capture_output=True, text=True)
    findings = []
    if json_path.is_file():
        findings = json.loads(json_path.read_text())["findings"]
    return proc, findings


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--analyzer", required=True)
    ap.add_argument("--fixtures", required=True)
    args = ap.parse_args(argv)
    analyzer = Path(args.analyzer).resolve()
    fixtures = Path(args.fixtures).resolve()

    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "findings.json"
        for name, rules, rule, bad_count in CASES:
            print(f"case {name}:")
            proc, findings = run(
                analyzer, fixtures / name / "bad", rules, json_path)
            check(proc.returncode == 1,
                  f"bad fixture exits 1 (got {proc.returncode})")
            check(len(findings) == bad_count,
                  f"bad fixture yields {bad_count} finding(s) "
                  f"(got {len(findings)}: {findings})")
            check(all(f["rule"] == rule for f in findings),
                  f"every bad finding is [{rule}]")

            json_path.unlink(missing_ok=True)
            proc, findings = run(
                analyzer, fixtures / name / "good", rules, json_path)
            check(proc.returncode == 0,
                  f"good fixture exits 0 (got {proc.returncode}: "
                  f"{proc.stdout.strip()})")
            check(len(findings) == 0, "good fixture is clean")
            json_path.unlink(missing_ok=True)

        print("case usage errors:")
        proc = subprocess.run(
            [sys.executable, str(analyzer), "--root",
             str(fixtures / "does-not-exist")],
            capture_output=True, text=True)
        check(proc.returncode == 2,
              f"missing root exits 2 (got {proc.returncode})")
        proc = subprocess.run(
            [sys.executable, str(analyzer), "--root",
             str(fixtures / "unguarded" / "good"),
             "--rules", "bogus-rule"],
            capture_output=True, text=True)
        check(proc.returncode == 2,
              f"unknown rule exits 2 (got {proc.returncode})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
