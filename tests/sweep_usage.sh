#!/bin/sh
# Malformed option values: orion_sweep must refuse each one with exit
# 1 and a diagnostic that starts with its own name, before it runs
# anything. Every case but the grid-bound ones carries a tiny grid, so
# a build that accepts the value anyway finishes quickly and fails
# here on its exit code. The grid-bound cases (a COUNT of -1 or
# 99999999999, an over-bound --seeds) would allocate or run without
# bound on a build that lacks the bound: do not point this script at
# one.
#
# Lost output: orion_sweep and orion_sim (found next to it) must exit
# 4 with a diagnostic when stdout or an output file cannot be written.
# /dev/full fails every write; the cases are skipped where it is not
# writable.
#
# Usage: tests/sweep_usage.sh PATH/TO/orion_sweep
set -u

sweep=$1
sim=$(dirname "$sweep")/orion_sim
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

expect_usage() {
    "$sweep" --rates 0.02:0.04:2 --sample 50 --jobs 1 "$@" \
        >/dev/null 2>"$tmp/err"
    rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "sweep_usage: '$*' exited $rc, expected 1" >&2
        status=1
    elif ! grep -q '^orion_sweep: ' "$tmp/err"; then
        echo "sweep_usage: '$*' printed no orion_sweep diagnostic:" >&2
        cat "$tmp/err" >&2
        status=1
    fi
}

expect_usage --seeds 2x
expect_usage --seeds -1
expect_usage --seeds 0
expect_usage --seeds 4294967296
expect_usage --seeds
expect_usage --heartbeat-interval nan
expect_usage --heartbeat-interval inf
expect_usage --heartbeat-interval 0
expect_usage --heartbeat-interval 1s
expect_usage --isolate --isolate-mem -1
# 2^44 MiB is 2^64 bytes: one past what the byte limit can hold.
expect_usage --isolate --isolate-mem 17592186044416
expect_usage --isolate --isolate-cpu -5
expect_usage --isolate --isolate-cpu 1x
expect_usage --rates nan:0.1:4
expect_usage --rates 0.01:inf:4
# Rates above 1 fail every cell's validation: a usage error instead.
expect_usage --rates 0.5:2:2
expect_usage --rates 0.01:0.1:-1
expect_usage --rates 0.01:0.1:99999999999
# 2 rates x 50001 seeds: over the 100000-cell grid bound.
expect_usage --seeds 50001
# A flag of the shared parser still names the tool that ran.
expect_usage --jobs 1x

# expect_io_error TOOL RC WHAT: a run of TOOL that lost its output
# exited RC, which must be 4, and said so on stderr.
expect_io_error() {
    if [ "$2" -ne 4 ]; then
        echo "sweep_usage: $3 exited $2, expected 4" >&2
        status=1
    elif ! grep -q "^$1: " "$tmp/err"; then
        echo "sweep_usage: $3 printed no $1 diagnostic:" >&2
        cat "$tmp/err" >&2
        status=1
    fi
}

if [ -w /dev/full ]; then
    "$sweep" --preset vc16 --rates 0.02:0.04:2 --sample 200 --jobs 1 \
        >/dev/full 2>"$tmp/err"
    expect_io_error orion_sweep $? "orion_sweep > /dev/full"
    mkdir "$tmp/metrics"
    ln -s /dev/full "$tmp/metrics/point_000.csv"
    "$sweep" --preset vc16 --rates 0.02:0.04:2 --sample 200 --jobs 1 \
        --metrics-dir "$tmp/metrics" >/dev/null 2>"$tmp/err"
    expect_io_error orion_sweep $? \
        "orion_sweep --metrics-dir with point_000.csv on /dev/full"
    "$sim" --preset vc16 --rate 0.02 --sample 200 >/dev/full 2>"$tmp/err"
    expect_io_error orion_sim $? "orion_sim > /dev/full"
    "$sim" --preset vc16 --rate 0.02 --sample 200 \
        --metrics-out /dev/full >/dev/null 2>"$tmp/err"
    expect_io_error orion_sim $? "orion_sim --metrics-out /dev/full"
else
    echo "sweep_usage: /dev/full is not writable; output cases skipped"
fi

[ "$status" -eq 0 ] && echo "sweep_usage: ok"
exit "$status"
