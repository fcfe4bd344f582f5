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
# Flags a tool does not take: orion_sweep, orion_sim and orion_models
# (both found next to orion_sweep) refuse each with exit 1 and a
# diagnostic in their own name, and each tool's --help names it. So
# do orion_sweep and orion_sim for a flag whose output the command
# line does not ask for, for two flags that name one file (a dangling
# symbolic link names its target), and for an input file they cannot
# read; the tool's name prefixes each diagnostic once. The retired
# retry and refresh flags are unknown options. ORION_LOG attaches no
# log sink.
#
# Lost output: orion_sweep and orion_sim must exit 4 with a diagnostic
# when stdout or an output file cannot be written: a run manifest or a
# log file in a missing directory (orion_sweep before it runs a cell),
# and, where /dev/full is writable (it fails every write), stdout and
# the metrics files.
#
# A zero-load probe that fails (poisoned, or its --isolate worker
# crashes) leaves the CSV whole, stays out of the journal, and makes
# orion_sweep exit 3.
#
# A bench harness (HARNESS) exits 2 on an ORION_JOBS its worker count
# cannot hold.
#
# Usage: tests/sweep_usage.sh PATH/TO/orion_sweep PATH/TO/HARNESS
set -u

sweep=$1
harness=$2
bin=$(dirname "$sweep")
sim=$bin/orion_sim
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

# expect_refusal TOOL ARGS...: TOOL exits 1 with a diagnostic that
# starts with its name.
expect_refusal() {
    tool=$1
    shift
    "$bin/$tool" "$@" >/dev/null 2>"$tmp/err"
    rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "sweep_usage: $tool '$*' exited $rc, expected 1" >&2
        status=1
    elif ! grep -q "^$tool: " "$tmp/err" ||
        grep -q "^$tool: $tool: " "$tmp/err"; then
        echo "sweep_usage: $tool '$*' printed no $tool diagnostic:" >&2
        cat "$tmp/err" >&2
        status=1
    fi
}

# expect_unknown TOOL FLAG: TOOL refuses FLAG as an unknown option.
expect_unknown() {
    expect_refusal "$1" --sample 50 "$2" 1
    if ! grep -q "unknown option '$2'" "$tmp/err"; then
        echo "sweep_usage: $1 does not call $2 unknown" >&2
        status=1
    fi
}

expect_usage() {
    expect_refusal orion_sweep --rates 0.02:0.04:2 --sample 50 --jobs 1 "$@"
}

expect_usage --seeds 2x
expect_usage --seeds -1
expect_usage --seeds 0
expect_usage --seeds 4294967296
expect_usage --seeds
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
# orion_sim's flags that a sweep would ignore.
expect_usage --rate 0.05
expect_usage --csv
expect_usage --breakdown
expect_usage --report-out "$tmp/r.txt"
expect_usage --metrics-out "$tmp/m.csv"
expect_usage --trace-out "$tmp/t.json"
# orion_sweep's flags, which one run has no use for.
expect_refusal orion_sim --sample 50 --jobs 3
# Retry is the stop table's rule; the manifest's refresh period is fixed.
for flag in --point-retries --point-backoff-ms --heartbeat-interval; do
    expect_unknown orion_sweep $flag
    expect_unknown orion_sim $flag
done
# The run manifest replaced the heartbeat file.
expect_usage --heartbeat "$tmp/hb.json"
# Flags that only shape an output the command line does not ask for.
expect_usage --sample-interval 10
expect_usage --trace-capacity 64
expect_usage --profile-phases
expect_usage --log-level debug
expect_refusal orion_sim --sample 50 --sample-interval 10
expect_refusal orion_sim --sample 50 --trace-capacity 64
expect_refusal orion_sim --sample 50 --profile-phases
expect_refusal orion_sim --sample 50 --log-level debug
# Two files of one run that are one file.
expect_usage --checkpoint "$tmp/x" --manifest-out "$tmp/x"
expect_usage --checkpoint "$tmp/x" --log-out "$tmp/./x"
expect_usage --checkpoint "$tmp/x" --log-out "$tmp/x.manifest.json"
expect_refusal orion_sim --sample 50 --metrics-out "$tmp/o" \
    --report-out "$tmp/o"
printf '0 0 1\n' >"$tmp/trace.txt"
expect_refusal orion_sim --sample 50 --pattern trace \
    --trace "$tmp/trace.txt" --trace-out "$tmp/trace.txt"
# Writing through a dangling link creates its target.
ln -s target "$tmp/link"
expect_usage --checkpoint "$tmp/link" --log-out "$tmp/target"
if [ -e "$tmp/target" ]; then
    echo "sweep_usage: a clash through a dangling link wrote its target" >&2
    status=1
fi
# Input files that cannot be read.
expect_refusal orion_sim --sample 50 --pattern trace --trace "$tmp/none.txt"
expect_usage --pattern trace --trace "$tmp/none.txt"
expect_usage --resume "$tmp/none.ckpt"
# Component keys that are misspelt or belong to another component.
expect_refusal orion_models buffer --flits 4 --bits 64 --read-prots 3
expect_refusal orion_models crossbar --inputs 5 --outputs 5 --width 64 \
    --muxtree --csv
expect_refusal orion_models link --length-um 100 --width 64 --freq 1
expect_refusal orion_models arbiter --requests 4 --bits 64

for tool in orion_sim orion_sweep orion_models; do
    if ! "$bin/$tool" --help | head -n 1 | grep -q "^usage: $tool "; then
        echo "sweep_usage: $tool --help does not name $tool" >&2
        status=1
    fi
done

# At --seeds 2 every failed seed's forensic snapshot follows its
# rate's failure line, as each failed rate's does at --seeds 1.
"$sweep" --rates 0.02:0.04:2 --sample 100 --seeds 2 --jobs 1 \
    --debug-poison-rate 0.04 >/dev/null 2>"$tmp/err"
snapshots=$(grep -c '^{"reason":' "$tmp/err")
if [ "$snapshots" -ne 2 ]; then
    echo "sweep_usage: --seeds 2 printed $snapshots snapshots, expected 2" >&2
    status=1
fi

# The log sink is --log-out's alone.
ORION_LOG="$tmp/env.log" "$sweep" --rates 0.02:0.04:2 --sample 50 --jobs 1 \
    >/dev/null 2>&1
ORION_LOG="$tmp/env.log" "$sim" --sample 50 >/dev/null 2>&1
if [ -e "$tmp/env.log" ]; then
    echo "sweep_usage: ORION_LOG attached a log sink" >&2
    status=1
fi

# 2^32 + 1 workers: out of range, not a wrap to 1.
ORION_JOBS=4294967297 ORION_SAMPLE=50 "$harness" >/dev/null 2>"$tmp/err"
rc=$?
if [ "$rc" -ne 2 ] || ! grep -q '^ORION_JOBS: ' "$tmp/err"; then
    echo "sweep_usage: ORION_JOBS=4294967297 exited $rc, expected 2" >&2
    status=1
fi

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

# The atomic writer stages PATH.tmp beside its target, so a missing
# directory fails the run manifest where /dev/full would not. The
# sweep's first write fails before any cell runs: its journal keeps
# only the header line.
"$sweep" --preset vc16 --rates 0.02:0.04:2 --sample 200 --jobs 1 \
    --checkpoint "$tmp/lost.ckpt" --manifest-out "$tmp/none/m.json" \
    >/dev/null 2>"$tmp/err"
expect_io_error orion_sweep $? "orion_sweep --manifest-out in a missing dir"
if [ "$(wc -l < "$tmp/lost.ckpt")" -ne 1 ]; then
    echo "sweep_usage: a sweep whose manifest cannot be written ran cells" >&2
    status=1
fi
"$sim" --preset vc16 --rate 0.02 --sample 200 \
    --manifest-out "$tmp/none/m.json" >/dev/null 2>"$tmp/err"
expect_io_error orion_sim $? "orion_sim --manifest-out in a missing dir"
"$sweep" --preset vc16 --rates 0.02:0.04:2 --sample 200 --jobs 1 \
    --checkpoint "$tmp/log.ckpt" --log-out "$tmp/none/l.jsonl" \
    >/dev/null 2>"$tmp/err"
expect_io_error orion_sweep $? "orion_sweep --log-out in a missing dir"
if [ -e "$tmp/log.ckpt" ]; then
    echo "sweep_usage: a sweep whose log cannot be opened started" >&2
    status=1
fi
"$sim" --preset vc16 --rate 0.02 --sample 200 \
    --log-out "$tmp/none/l.jsonl" >/dev/null 2>"$tmp/err"
expect_io_error orion_sim $? "orion_sim --log-out in a missing dir"

# expect_probe_failure WHAT ARGS...: a sweep of two rates whose
# zero-load probe fails prints both rows and an unknown zero-load
# latency, and exits 3.
expect_probe_failure() {
    what=$1
    shift
    "$sweep" --rates 0.01:0.02:2 --sample 100 --jobs 1 "$@" \
        >"$tmp/probe.csv" 2>"$tmp/err"
    rc=$?
    rows=$(($(wc -l <"$tmp/probe.csv") - 1))
    if [ "$rc" -ne 3 ] || [ "$rows" -ne 2 ] ||
        ! grep -q '^# zero-load latency: unknown' "$tmp/err" ||
        ! grep -q '^orion_sweep: zero-load probe failed' "$tmp/err"; then
        echo "sweep_usage: $what exited $rc with $rows rows" >&2
        cat "$tmp/err" >&2
        status=1
    fi
}
expect_probe_failure "a poisoned probe" --debug-poison-rate 0.002 \
    --checkpoint "$tmp/probe.ckpt"
# The journal holds its header and the two cells, not the probe.
if [ "$(wc -l < "$tmp/probe.ckpt")" -ne 3 ]; then
    echo "sweep_usage: the journal of a failed probe is not 3 lines" >&2
    status=1
fi
expect_probe_failure "a poisoned probe at --seeds 2" \
    --debug-poison-rate 0.002 --seeds 2
expect_probe_failure "a crashed --isolate probe" --isolate \
    --debug-segv-rate 0.002

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
