#!/bin/sh
# Malformed arguments: tools/perf_ab.py must refuse each one with exit
# 2 before it exports or builds anything. Every case but the last
# names a valid revision, and each call is capped at 60 s, so a
# version that accepts the argument anyway fails here instead of
# starting an A/B run.
#
# Usage: tests/perf_ab_usage.sh PYTHON PATH/TO/perf_ab.py
set -u

python=$1
tool=$2
status=0

expect_usage() {
    timeout 60 "$python" "$tool" "$@" >/dev/null 2>&1
    rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "perf_ab_usage: '$*' exited $rc, expected 2" >&2
        status=1
    fi
}

expect_usage
expect_usage HEAD
expect_usage HEAD --workload no-such-workload
expect_usage HEAD --workload kernel-vc16 --pairs 0
expect_usage HEAD --workload kernel-vc16 --pairs x
expect_usage HEAD --workload kernel-vc16 --seconds -1
expect_usage HEAD --workload kernel-vc16 --seconds nan
expect_usage HEAD --workload kernel-vc16 --seconds inf
expect_usage HEAD --workload kernel-vc16 --seed0 -1
expect_usage HEAD --workload kernel-vc16 --no-such-flag
expect_usage no-such-revision-0123 --workload kernel-vc16

[ "$status" -eq 0 ] && echo "perf_ab_usage: ok"
exit "$status"
