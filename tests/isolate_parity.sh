#!/bin/sh
# Isolation parity: `orion_sweep --isolate` (one orion_sim worker
# process per point) must print the same CSV, byte for byte, and exit
# with the same code as the in-process sweep. A journal written by an
# --isolate run and cut to two entries must resume in-process to that
# same CSV.
#
# The sweep poisons one point (a structured check failure, so exit 3)
# and injects link bit errors, so the retry band, the failure row and
# the fault counters all take part in the comparison.
#
# Usage: tests/isolate_parity.sh PATH/TO/orion_sweep
set -u

sweep=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
    echo "isolate_parity: $*" >&2
    exit 1
}

run() {
    out=$1
    shift
    "$sweep" --rates 0.02:0.08:4 --sample 500 --debug-poison-rate 0.04 \
        --link-ber 2e-6 --jobs 2 "$@" >"$tmp/$out" 2>"$tmp/$out.err"
    echo $?
}

rc=$(run inproc.csv)
[ "$rc" -eq 3 ] || fail "in-process sweep exited $rc, expected 3"
rc=$(run isolate.csv --isolate)
[ "$rc" -eq 3 ] || fail "--isolate sweep exited $rc, expected 3"
cmp "$tmp/inproc.csv" "$tmp/isolate.csv" ||
    fail "--isolate CSV differs from the in-process CSV"

rc=$(run checkpoint.csv --isolate --checkpoint "$tmp/journal")
[ "$rc" -eq 3 ] || fail "--isolate --checkpoint exited $rc, expected 3"
cmp "$tmp/inproc.csv" "$tmp/checkpoint.csv" ||
    fail "--isolate --checkpoint CSV differs from the in-process CSV"

# The header line plus the first two journaled cells.
head -n 3 "$tmp/journal" >"$tmp/cut"
rc=$(run resumed.csv --resume "$tmp/cut")
[ "$rc" -eq 3 ] || fail "in-process --resume exited $rc, expected 3"
cmp "$tmp/inproc.csv" "$tmp/resumed.csv" ||
    fail "in-process resume of an --isolate journal differs"

echo "isolate_parity: ok"
