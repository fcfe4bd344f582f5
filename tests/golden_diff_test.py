#!/usr/bin/env python3
"""Self-test of tools/golden_diff.py against tampered copies of a corpus.

    python3 tests/golden_diff_test.py --tool tools/golden_diff.py \
        --corpus tests/golden/reports.txt

Identical corpora and a double moved well inside the tolerance must
pass; a changed integer count, a double moved by 1e-9 relative and a
missing case must fail.
"""

import argparse
import re
import subprocess
import sys
import tempfile
from pathlib import Path


def run(tool, old, new):
    return subprocess.run(
        [sys.executable, str(tool), str(old), str(new), "--rel", "1e-12"],
        capture_output=True, text=True).returncode


def first_case(lines):
    for i, line in enumerate(lines):
        if line and not line.startswith("#") and \
                not line.startswith("epoch "):
            return i
    raise SystemExit("corpus has no cases")


def scale_field(line, key, factor):
    """Multiply hexfloat field @key of @line by @factor."""
    m = re.search(rf" {key}=(\S+)", line)
    old = float.fromhex(m.group(1))
    assert old != 0.0, f"field {key} is zero"
    return line[:m.start(1)] + (old * factor).hex() + line[m.end(1):]


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--tool", required=True)
    ap.add_argument("--corpus", required=True)
    args = ap.parse_args(argv)
    tool = Path(args.tool)
    lines = Path(args.corpus).read_text().splitlines()
    i = first_case(lines)

    def variant(edit):
        changed = list(lines)
        edit(changed)
        return "\n".join(changed) + "\n"

    def bump_cycles(ls):
        ls[i] = re.sub(r" tc=(\d+)",
                       lambda m: f" tc={int(m.group(1)) + 1}", ls[i])

    cases = [
        ("identical corpora", lambda ls: None, 0),
        ("power moved by 1e-14", lambda ls: ls.__setitem__(
            i, scale_field(ls[i], "pw", 1.0 + 1e-14)), 0),
        ("tampered cycle count", bump_cycles, 1),
        ("power moved by 1e-9", lambda ls: ls.__setitem__(
            i, scale_field(ls[i], "pw", 1.0 + 1e-9)), 1),
        ("missing case", lambda ls: ls.pop(i), 1),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, edit, want in cases:
            new = Path(tmp) / "new.txt"
            new.write_text(variant(edit))
            got = run(tool, args.corpus, new)
            ok = got == want
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {got}, "
                  f"want {want}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
