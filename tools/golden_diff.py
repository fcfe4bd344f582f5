#!/usr/bin/env python3
"""Compare two golden report corpora (tests/golden/reports.txt format).

    python3 tools/golden_diff.py OLD NEW [--rel 1e-12]

A corpus is a `epoch N` line followed by `name digest` lines ('#' lines
are comments). A digest is space-separated `key=value` fields: integer
counts (a comma list for the event counts) and C99 hexfloats
(core::exactDouble) for latencies and powers.

The comparison passes when both corpora hold the same case names, each
case has the same fields, every integer field is identical, and every
hexfloat differs by at most --rel relative to the larger magnitude. It
prints how many doubles moved, the largest relative change of each
hexfloat field, and the worst one overall. Use it when a deliberate
change moves results in the last bits (a kDeterminismEpoch bump): run
the old build's golden_test with ORION_GOLDEN_OUT to capture OLD, the
new build's to capture NEW, and keep the output as evidence.

Exit status: 0 pass, 1 differences beyond tolerance, 2 bad input.
"""

import argparse
import sys


def load(path):
    """Return (epoch, {case: {key: value-string}})."""
    epoch = None
    cases = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            name, _, rest = line.partition(" ")
            if name == "epoch":
                epoch = rest
                continue
            if name in cases:
                raise ValueError(f"{path}:{lineno}: duplicate case {name}")
            fields = {}
            for tok in rest.split():
                key, sep, value = tok.partition("=")
                if not sep:
                    raise ValueError(f"{path}:{lineno}: bad field '{tok}'")
                fields[key] = value
            cases[name] = fields
    return epoch, cases


def is_hexfloat(value):
    return value.lstrip("-").startswith("0x")


def rel_diff(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def compare(old, new, rel):
    """Return (errors, doubles compared, moved, {key: worst}, worst)."""
    errors = []
    compared = moved = 0
    per_key = {}
    worst = None
    for name in sorted(set(old) - set(new)):
        errors.append(f"case {name} missing from NEW")
    for name in sorted(set(new) - set(old)):
        errors.append(f"case {name} missing from OLD")
    for name in sorted(set(old) & set(new)):
        a, b = old[name], new[name]
        if list(a) != list(b):
            errors.append(f"{name}: fields differ: {' '.join(a)} vs "
                          f"{' '.join(b)}")
            continue
        for key in a:
            va, vb = a[key], b[key]
            if is_hexfloat(va) != is_hexfloat(vb):
                errors.append(f"{name} {key}: {va} vs {vb}")
                continue
            if not is_hexfloat(va):
                if va != vb:
                    errors.append(f"{name} {key}: integer field "
                                  f"{va} != {vb}")
                continue
            x, y = float.fromhex(va), float.fromhex(vb)
            compared += 1
            d = rel_diff(x, y)
            if x != y:
                moved += 1
            per_key[key] = max(per_key.get(key, 0.0), d)
            if worst is None or d > worst[0]:
                worst = (d, name, key, x, y)
            if d > rel:
                errors.append(f"{name} {key}: {x!r} -> {y!r} "
                              f"(rel {d:.3g} > {rel:g})")
    return errors, compared, moved, per_key, worst


def main(argv):
    ap = argparse.ArgumentParser(
        description="Compare two golden report corpora.")
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--rel", type=float, default=1e-12,
                    help="largest relative change allowed in a "
                         "hexfloat field (default 1e-12)")
    args = ap.parse_args(argv)

    try:
        old_epoch, old = load(args.old)
        new_epoch, new = load(args.new)
    except (OSError, ValueError) as e:
        print(f"golden_diff: {e}", file=sys.stderr)
        return 2

    errors, compared, moved, per_key, worst = compare(old, new, args.rel)
    print(f"golden_diff: epoch {old_epoch} -> {new_epoch}, "
          f"{len(old)} vs {len(new)} cases, {compared} doubles compared, "
          f"{moved} moved")
    for key in sorted(per_key):
        print(f"  {key:>4}: max rel change {per_key[key]:.3g}")
    if worst is not None:
        d, name, key, x, y = worst
        print(f"  worst: {name} {key}: {x!r} -> {y!r} (rel {d:.3g})")
    for e in errors:
        print(f"  FAIL {e}")
    if errors:
        print(f"golden_diff: FAIL ({len(errors)} difference(s) beyond "
              f"--rel {args.rel:g} or in exact fields)")
        return 1
    print(f"golden_diff: PASS (integer fields identical, every double "
          f"within --rel {args.rel:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
