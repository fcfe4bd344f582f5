#!/bin/sh
# Isolation parity: `orion_sweep --isolate` (one orion_sim worker
# process per point) must print the same CSV, byte for byte, and exit
# with the same code as the in-process sweep. A journal written by an
# --isolate run and cut to two entries must resume in-process to that
# same CSV, and so must the whole journal, whose run manifest
# (tools/orion_status.py reads it) then counts all four cells as
# carried over, the poisoned one as failed. The in-process --seeds 2
# path (averaged rows) must resume the same way from a journal cut to
# two of its cells, and print that CSV with --isolate too.
#
# The sweep poisons one point (a structured check failure, so exit 3)
# and injects link bit errors, so the retry band, the failure row and
# the fault counters all take part in the comparison.
#
# Usage: tests/isolate_parity.sh PATH/TO/orion_sweep
set -u

sweep=$1
status_py=$(dirname "$0")/../tools/orion_status.py
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

rc=$(run whole.csv --resume "$tmp/journal")
[ "$rc" -eq 3 ] || fail "--resume of the whole journal exited $rc, expected 3"
cmp "$tmp/inproc.csv" "$tmp/whole.csv" ||
    fail "--resume of the whole journal differs"
status=$(python3 "$status_py" --once "$tmp/journal.manifest.json")
python3 - "$status" <<'EOF' || fail "run manifest of the resume: $status"
import json, sys
s = json.loads(sys.argv[1])
assert s["ok"] and s["finished"], s
assert s["done"] == s["total"] == 4, s
assert s["from_checkpoint"] == 4 and s["failed"] == 1, s
EOF

rc=$(run seeds.csv --seeds 2)
[ "$rc" -eq 3 ] || fail "--seeds 2 sweep exited $rc, expected 3"
rc=$(run seeds_checkpoint.csv --seeds 2 --checkpoint "$tmp/seeds_journal")
[ "$rc" -eq 3 ] || fail "--seeds 2 --checkpoint exited $rc, expected 3"
cmp "$tmp/seeds.csv" "$tmp/seeds_checkpoint.csv" ||
    fail "--seeds 2 --checkpoint CSV differs from the plain --seeds 2 CSV"
head -n 3 "$tmp/seeds_journal" >"$tmp/seeds_cut"
rc=$(run seeds_resumed.csv --seeds 2 --resume "$tmp/seeds_cut")
[ "$rc" -eq 3 ] || fail "--seeds 2 --resume exited $rc, expected 3"
cmp "$tmp/seeds.csv" "$tmp/seeds_resumed.csv" ||
    fail "--seeds 2 resume differs from the uninterrupted CSV"
rc=$(run seeds_isolate.csv --seeds 2 --isolate)
[ "$rc" -eq 3 ] || fail "--seeds 2 --isolate exited $rc, expected 3"
cmp "$tmp/seeds.csv" "$tmp/seeds_isolate.csv" ||
    fail "--seeds 2 --isolate CSV differs from the in-process CSV"

echo "isolate_parity: ok"
