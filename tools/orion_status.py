#!/usr/bin/env python3
"""Live status for an Orion run, from its run manifest.

orion_sweep keeps its run manifest (--manifest-out FILE, or
JOURNAL.manifest.json beside a --checkpoint/--resume journal) live: it
atomically replaces the file (tmp + rename) after each finished cell
and about once a second with an "orion-run-manifest-v3" JSON document:
what ran and on which build, totals, ETA, and the cells each worker
slot is simulating right now. This tool renders that document without
touching the sweep process — run it in a second terminal
(docs/EXPERIMENTS.md, "Monitor a long sweep"):

  orion_status.py /path/to/sweep.ckpt.manifest.json          # live
  orion_status.py /path/to/sweep.ckpt.manifest.json --once   # one line

Because replacement is atomic, a reader never sees a torn file while
the writer is alive; after SIGKILL the last completed document
survives. A missing or unparseable file is reported, not crashed on
(exit 1 with --once; retried forever in live mode).

Exit status: 0 when the manifest was read (live mode: the run
finished or Ctrl-C), 1 when --once could not produce a summary, 2 on
usage errors.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def read_manifest(path):
    """Parse the manifest; returns (dict, None) or (None, reason)."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None, "missing"
    except OSError as e:
        return None, f"unreadable: {e}"
    try:
        m = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None, "torn or not JSON"
    if not isinstance(m, dict):
        return None, "not a JSON object"
    if m.get("schema") != "orion-run-manifest-v3":
        return None, f"unexpected schema {m.get('schema')!r}"
    return m, None


def fmt_eta(eta_s):
    if eta_s is None or eta_s < 0:
        return "--"
    if eta_s < 120:
        return f"{eta_s:.0f}s"
    if eta_s < 7200:
        return f"{eta_s / 60.0:.1f}m"
    return f"{eta_s / 3600.0:.1f}h"


def staleness(m, now):
    updated = m.get("time", {}).get("updated_unix_s")
    if not isinstance(updated, (int, float)):
        return None
    return max(0.0, now - updated)


def summarize(m, now, stale_after):
    """The --once JSON summary (also the live mode's data source)."""
    stale_s = staleness(m, now)
    points = m.get("points", {})
    failed = points.get("failed", 0)
    return {
        "ok": True,
        "tool": m.get("tool", "?"),
        "pid": m.get("host", {}).get("pid"),
        "done": points.get("completed", 0) + failed,
        "total": points.get("total", 0),
        "failed": failed,
        "from_checkpoint": points.get("from_checkpoint", 0),
        "jobs": m.get("jobs"),
        "finished": bool(m.get("finished", False)),
        "eta_s": m.get("eta_s"),
        "ema_point_s": m.get("ema_point_s"),
        "workers_active": len(m.get("workers", [])),
        "stale_s": None if stale_s is None else round(stale_s, 3),
        # A dead writer leaves finished=false and a growing stale_s;
        # flag it so scripts can tell "running" from "killed".
        "presumed_dead": bool(
            not m.get("finished", False)
            and stale_s is not None and stale_s > stale_after),
    }


def render(m, now, stale_after):
    """Human lines for the live dashboard."""
    s = summarize(m, now, stale_after)
    pct = 100.0 * s["done"] / s["total"] if s["total"] else 0.0
    lines = []
    state = "finished" if s["finished"] else (
        "STALLED/DEAD?" if s["presumed_dead"] else "running")
    lines.append(
        f"{s['tool']} (pid {s['pid']}): {state}  "
        f"{s['done']}/{s['total']} done ({pct:.0f}%), "
        f"{s['failed']} failed, {s['from_checkpoint']} from checkpoint, "
        f"ETA {fmt_eta(s['eta_s'])}")
    build = m.get("build", {})
    lines.append(
        f"  fingerprint {m.get('fingerprint')} "
        f"[{build.get('compiler', '?')} {build.get('git_sha', '?')}]")
    if s["stale_s"] is not None:
        lines.append(f"  manifest age {s['stale_s']:.1f}s, "
                     f"jobs {s['jobs']}, "
                     f"ema point {m.get('ema_point_s') or '--'}s")
    for w in m.get("workers", []):
        lines.append(
            f"  slot {w.get('slot')}: rate_index {w.get('rate_index')} "
            f"seed {w.get('seed_index')} attempt {w.get('attempt')} — "
            f"{w.get('cycles'):,} cycles, {w.get('running_s'):.1f}s")
    return lines


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("manifest", help="run manifest JSON file "
                                     "(orion_sweep --manifest-out, or "
                                     "JOURNAL.manifest.json)")
    ap.add_argument("--once", action="store_true",
                    help="print one machine-readable JSON summary "
                         "line and exit")
    ap.add_argument("--interval", type=float, default=1.0,
                    help="live refresh period in seconds (default 1)")
    ap.add_argument("--stale-after", type=float, default=10.0,
                    help="seconds without an update before the writer "
                         "is presumed dead (default 10)")
    args = ap.parse_args(argv)
    if args.interval <= 0 or args.stale_after <= 0:
        ap.error("--interval and --stale-after must be positive")

    if args.once:
        m, reason = read_manifest(args.manifest)
        if m is None:
            print(json.dumps({"ok": False, "error": reason,
                              "path": args.manifest}))
            return 1
        print(json.dumps(summarize(m, time.time(), args.stale_after)))
        return 0

    try:
        while True:
            m, reason = read_manifest(args.manifest)
            if m is None:
                print(f"[{args.manifest}: {reason}; retrying]",
                      file=sys.stderr)
            else:
                print("\n".join(render(m, time.time(),
                                       args.stale_after)))
                if m.get("finished"):
                    return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
