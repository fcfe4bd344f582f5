#!/bin/sh
# Repo check driver — the full correctness matrix:
#
#   1. tier-1:   configure + build (warnings-as-errors) + full ctest
#   2. asan:     ASan+UBSan build; fuzz, audit, fault,
#                parallel-sweep and checkpoint-journal tests (the
#                journal's raw-fd write, fsync and resume truncation),
#                plus the kernel, BitVec, channel,
#                FIFO, golden-corpus and power-accounting tests (packet
#                reference counts, BitVec union storage, the activity
#                tally's indexing) and the steady-state allocation
#                count, at the paranoid check level,
#                plus a fault-injection orion_sweep smoke run
#   3. tsan:     ThreadSanitizer build of the parallel sweep engine
#   4. overhead: bench/overhead times one serial vc16 sweep in six
#                interleaved modes and fails if any mode's reports
#                differ from the default's; the leg fails when the
#                cheap check level costs 5% or more over checks off,
#                the windowed sampler 2% or more over the default, or
#                an armed, never-firing CancelToken 10% or more over
#                the default (paranoid checks and tracing are
#                reported, not gated). Noise-bound on shared hosts,
#                so CI does not run it
#   5. survive:  kill-and-resume drill — a checkpointed sweep, whose
#                run manifest beside the journal is live, is SIGKILLed
#                once its journal holds its first cell (it must not
#                have exited); that manifest must still parse
#                (orion_status.py --once), unfinished, with its
#                fingerprint and a done-count consistent with the
#                journal; the resume must produce a CSV byte-identical
#                to an uninterrupted run and report the carried-over
#                cells in its manifest; then an --isolate sweep with a
#                deliberately SIGSEGVing point (--debug-segv-rate) must
#                record a structured worker-crash failure while every
#                other point completes
#   6. lint:     tools/orion_lint.py over the tree (determinism,
#                ownership, layering, concurrency and Mutex
#                annotation coverage rules) and its fixture tests;
#                clang-tidy when installed; and, when a clang++ is
#                installed, a Clang build with -Wthread-safety
#                promoted to errors, which verifies the core::Mutex
#                annotations for real (they are no-ops under GCC)
#
# Usage: tools/check.sh [--tier1-only|--asan-only|--tsan-only|
#                        --overhead-only|--survive-only|--lint-only|
#                        --help]
# No argument runs every leg. Any other argument, or more than one,
# prints the usage line and exits 2.
set -eu

usage="usage: tools/check.sh [--tier1-only|--asan-only|--tsan-only|\
--overhead-only|--survive-only|--lint-only|--help]"

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
mode=${1:-all}
case "$#:$mode" in
    0:all|1:--tier1-only|1:--asan-only|1:--tsan-only|1:--overhead-only|\
    1:--survive-only|1:--lint-only)
        ;;
    1:--help)
        echo "$usage"
        exit 0
        ;;
    *)
        echo "$usage" >&2
        exit 2
        ;;
esac

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)

run_leg() {
    case "$mode" in
        all|"--$1-only") return 0 ;;
        *) return 1 ;;
    esac
}

if run_leg tier1; then
    echo "== tier-1: configure + build (-Werror) + ctest =="
    cmake -B "$root/build" -S "$root" -DORION_WERROR=ON
    cmake --build "$root/build" -j "$jobs"
    # --timeout: a deadlocked simulation fails its test instead of
    # wedging the whole leg.
    ctest --test-dir "$root/build" --output-on-failure -j "$jobs" \
        --timeout 600
fi

if run_leg asan; then
    echo "== ASan+UBSan: fuzz/audit/sweep/kernel tests, paranoid checks =="
    cmake -B "$root/build-asan" -S "$root" \
        -DORION_ASAN=ON -DORION_UBSAN=ON -DORION_WERROR=ON
    asan_tests="fuzz_test audit_test fault_test parallel_sweep_test \
        sweep_test checkpoint_test reroute_test deadlock_test kernel_test \
        activity_test link_channel_test fifo_test golden_test \
        power_accounting_test alloc_test"
    cmake --build "$root/build-asan" -j "$jobs" \
        --target $asan_tests orion_sweep
    for t in $asan_tests; do
        ORION_CHECK=paranoid "$root/build-asan/tests/$t"
    done
    echo "== ASan+UBSan: fault-injection sweep smoke =="
    ORION_CHECK=paranoid "$root/build-asan/tools/orion_sweep" \
        --rates 0.02:0.06:3 --sample 500 --link-ber 2e-6 \
        --link-outage 1200:1500 --jobs 2 > /dev/null
fi

if run_leg tsan; then
    echo "== TSan: parallel sweep engine under ThreadSanitizer =="
    cmake -B "$root/build-tsan" -S "$root" -DORION_TSAN=ON
    cmake --build "$root/build-tsan" -j "$jobs" \
        --target parallel_sweep_test sweep_test
    ORION_CHECK=paranoid "$root/build-tsan/tests/parallel_sweep_test"
    ORION_CHECK=paranoid "$root/build-tsan/tests/sweep_test"
fi

if run_leg overhead; then
    echo "== overhead: check-level, telemetry and cancellation cost =="
    cmake -B "$root/build" -S "$root"
    cmake --build "$root/build" -j "$jobs" --target overhead
    result=$("$root/build/bench/overhead")
    python3 - "$result" <<'EOF'
import json, sys
r = json.loads(sys.argv[1])
wall = r["wall_s"]
print(f"vc16 sweep, {r['rates']} rates x {r['sample_packets']} packets, "
      f"best of {r['rounds']} interleaved rounds:")
# (mode, baseline, gate in percent; None = reported, not gated)
rows = (("default", "checks_off", 5.0), ("paranoid", "checks_off", None),
        ("sampled_1k", "default", 2.0), ("traced", "default", None),
        ("cancel_armed", "default", 10.0))
fail = []
for mode, base, gate in rows:
    pct = 100.0 * (wall[mode] - wall[base]) / wall[base]
    limit = "not gated" if gate is None else f"gate {gate:.0f}%"
    print(f"  {mode:12s} {wall[mode]:.3f} s  {pct:+5.1f}% vs {base}"
          f"  ({limit})")
    if gate is not None and pct >= gate:
        fail.append(f"{mode} costs {pct:.1f}% over {base} (>= {gate:.0f}%)")
if fail:
    sys.exit("FAIL: " + "; ".join(fail))
EOF
fi

if run_leg survive; then
    echo "== survive: SIGKILL mid-sweep, resume, diff vs clean run =="
    cmake -B "$root/build" -S "$root"
    cmake --build "$root/build" -j "$jobs" --target orion_sweep orion_sim
    sdir="$root/build/survive"
    rm -rf "$sdir"
    mkdir -p "$sdir"
    sweep="$root/build/tools/orion_sweep"
    args="--rates 0.02:0.30:8 --sample 20000 --max-cycles 2000000"
    # Reference: the same grid, uninterrupted.
    $sweep $args --jobs 2 > "$sdir/reference.csv"
    # Victim: checkpointed, so its run manifest is live beside the
    # journal, then SIGKILLed (uncatchable — exercises the torn-tail
    # tolerance and the atomic manifest replacement, not the
    # cooperative handlers).
    $sweep $args --jobs 2 --checkpoint "$sdir/journal" \
        > /dev/null 2> /dev/null &
    victim=$!
    # Kill once the journal holds its first entry (a line after the
    # header), so progress, not a fixed sleep, sets the kill point on
    # any host. Polls every 0.05 s for at most 60 s.
    polls=0
    until [ "$(wc -l 2> /dev/null < "$sdir/journal" || echo 0)" -ge 2 ] ||
        [ "$polls" -ge 1200 ]; do
        polls=$((polls + 1))
        sleep 0.05
    done
    kill -KILL "$victim" 2> /dev/null || true
    rc=0
    wait "$victim" 2> /dev/null || rc=$?
    [ "$polls" -lt 1200 ] || { echo "FAIL: no journal entry in 60 s"; exit 1; }
    [ "$rc" -eq 137 ] || {
        echo "FAIL: victim exited ($rc) before the SIGKILL landed"
        exit 1
    }
    # The killed run's manifest (kept before the resume replaces it)
    # must still parse (atomic replacement leaves the last complete
    # document), unfinished and with its fingerprint, and its
    # done-count must agree with the journal: never ahead of it, and
    # at most `jobs` behind (cells journaled after the last rewrite
    # began reach only the next one).
    cp "$sdir/journal.manifest.json" "$sdir/killed.manifest.json"
    status=$(python3 "$root/tools/orion_status.py" --once \
        "$sdir/killed.manifest.json")
    echo "killed-run status: $status"
    journal_entries=$(($(wc -l < "$sdir/journal") - 1))
    python3 - "$status" "$journal_entries" "$sdir/killed.manifest.json" <<'EOF'
import json, sys
s = json.loads(sys.argv[1])
journal = int(sys.argv[2])
m = json.load(open(sys.argv[3]))
assert s["ok"] and s["tool"] == "orion_sweep", s
assert not s["finished"], "SIGKILLed run cannot have finished"
assert len(m["fingerprint"]) == 16 and m["build"]["compiler"], m
done, jobs = s["done"], s["jobs"]
# The torn tail may drop the journal's final line, so allow done to
# lead by that one crash artifact.
assert done <= journal + 1, f"manifest done={done} > journal={journal}+1"
assert journal - done <= jobs, \
    f"manifest done={done} lags journal={journal} by more than jobs={jobs}"
print(f"manifest survives SIGKILL: fingerprint {m['fingerprint']}, "
      f"done={done}, journal={journal}")
EOF
    # Resume at a different job count: merged CSV must be identical,
    # and the resumed run's manifest must account for the cells
    # carried over from the journal.
    $sweep $args --jobs 4 --resume "$sdir/journal" > "$sdir/resumed.csv" \
        2> /dev/null
    cmp "$sdir/reference.csv" "$sdir/resumed.csv"
    echo "resumed CSV byte-identical to the uninterrupted run"
    status=$(python3 "$root/tools/orion_status.py" --once \
        "$sdir/journal.manifest.json")
    echo "resumed-run status: $status"
    python3 - "$status" <<'EOF'
import json, sys
s = json.loads(sys.argv[1])
assert s["ok"] and s["finished"] and s["tool"] == "orion_sweep", s
assert s["done"] == s["total"], s
assert s["from_checkpoint"] > 0, \
    "resumed run must report carried-over points"
print(f"resume accounted: {s['from_checkpoint']}/{s['total']} "
      "from checkpoint")
EOF

    echo "== survive: --isolate absorbs a SIGSEGVing worker =="
    rc=0
    $sweep --rates 0.02:0.06:3 --sample 500 --isolate \
        --debug-segv-rate 0.04 > "$sdir/isolate.csv" \
        2> "$sdir/isolate.err" || rc=$?
    [ "$rc" -eq 3 ] || {
        echo "FAIL: expected exit 3 (failed point), got $rc"
        cat "$sdir/isolate.err"
        exit 1
    }
    grep -q "worker-crash" "$sdir/isolate.err" || {
        echo "FAIL: no structured worker-crash diagnosis on stderr"
        cat "$sdir/isolate.err"
        exit 1
    }
    # The two healthy rates still completed and made it into the CSV.
    healthy=$(grep -c "^0.0[26]00,1," "$sdir/isolate.csv" || true)
    [ "$healthy" -eq 2 ] || {
        echo "FAIL: expected 2 healthy points in CSV, got $healthy"
        cat "$sdir/isolate.csv"
        exit 1
    }
    echo "worker crash recorded; sibling points unaffected"
fi

if run_leg lint; then
    echo "== lint: orion_lint + fixtures =="
    python3 "$root/tools/orion_lint.py" --root "$root"
    python3 "$root/tests/analysis/run_analyzer_tests.py" \
        --analyzer "$root/tools/orion_lint.py" \
        --fixtures "$root/tests/analysis/fixtures"
    if command -v clang-tidy > /dev/null 2>&1; then
        echo "== lint: clang-tidy =="
        cmake -B "$root/build" -S "$root" > /dev/null
        cmake --build "$root/build" --target lint
    else
        echo "clang-tidy not installed; skipping (CI runs it)"
    fi
    if command -v clang++ > /dev/null 2>&1; then
        echo "== lint: Clang thread-safety annotations as errors =="
        cmake -B "$root/build-clang" -S "$root" \
            -DCMAKE_CXX_COMPILER=clang++ \
            -DCMAKE_CXX_FLAGS="-Werror=thread-safety -Werror=thread-safety-beta"
        cmake --build "$root/build-clang" -j "$jobs" --target orion
    else
        echo "clang++ not installed; annotation verification skipped" \
             "(CI's analysis job runs it)"
    fi
fi

echo "== check.sh: all green =="
