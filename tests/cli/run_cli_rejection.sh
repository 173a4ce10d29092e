#!/usr/bin/env bash
# Bench CLI input rejection: malformed or removed flags must fail
# fast with exit 2 and a diagnostic on stderr, never run silently
# with a guessed value. Drives one sweep bench through bench::Session.
#
#   --jobs=abc / 2x / -3 / 99999999999  exit 2, "invalid --jobs value"
#   --sample-interval=abc / 0 / -5 / 2x / 99999999999999999999 /
#     99999999999999 (fits a uint64, its tick count does not)
#                                       exit 2, "invalid --sample-interval value"
#   --shards=4 (removed)                exit 2, "unknown flag"
#   --smoke --jobs=0 (all hw threads)   exit 0
#   --smoke --sample-interval=500       exit 0
#
# With --datapath-flags the bench must also declare --nic-cache-mb
# (bench/datapath_flags.hh), and these must be rejected the same way:
#
#   --nic-cache-mb=abc / 1x / "" / -5 / inf / nan / 1e12
#                                       exit 2, "invalid --nic-cache-mb value"
#   --smoke --jobs=0 --nic-cache-mb=0.5 exit 0
#
# Usage: run_cli_rejection.sh BENCH_BINARY [--datapath-flags]
set -uo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ] ||
       { [ $# -eq 2 ] && [ "$2" != "--datapath-flags" ]; }; then
    echo "usage: $0 BENCH_BINARY [--datapath-flags]" >&2
    exit 2
fi

bin=$1
datapath_flags=${2:-}
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

failures=0

# expect_reject FLAG PATTERN: exit status 2 and PATTERN on stderr.
expect_reject() {
    local flag=$1 pattern=$2 rc=0
    "$bin" "$flag" > "$tmpdir/out" 2> "$tmpdir/err" || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: $flag exited $rc, expected 2" >&2
        failures=$((failures + 1))
    elif ! grep -qF -- "$pattern" "$tmpdir/err"; then
        echo "FAIL: $flag stderr lacks '$pattern':" >&2
        cat "$tmpdir/err" >&2
        failures=$((failures + 1))
    else
        echo "ok: $flag -> exit 2: $(head -1 "$tmpdir/err")"
    fi
}

for value in abc 2x -3 99999999999; do
    expect_reject "--jobs=$value" "invalid --jobs value '$value'"
done
# 99999999999999999999 overflows a uint64; 99999999999999 fits one
# but its tick count (x 10^6) does not.
for value in abc 0 -5 2x 99999999999999999999 99999999999999; do
    expect_reject "--sample-interval=$value" \
        "invalid --sample-interval value '$value'"
done
expect_reject "--shards=4" "unknown flag '--shards'"

if [ -n "$datapath_flags" ]; then
    # 1e12 MB is finite but its entry count overflows an unsigned.
    for value in abc 1x "" -5 inf nan 1e12; do
        expect_reject "--nic-cache-mb=$value" \
            "invalid --nic-cache-mb value '$value'"
    done
fi

# expect_ok FLAG...: the bench runs to completion.
expect_ok() {
    local rc=0
    "$bin" "$@" > "$tmpdir/out" 2> "$tmpdir/err" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: $* exited $rc, expected 0" >&2
        cat "$tmpdir/err" >&2
        failures=$((failures + 1))
    else
        echo "ok: $* -> exit 0"
    fi
}

expect_ok --smoke --jobs=0
expect_ok --smoke --sample-interval=500
if [ -n "$datapath_flags" ]; then
    expect_ok --smoke --jobs=0 --nic-cache-mb=0.5
fi

if [ "$failures" -ne 0 ]; then
    echo "$(basename "$bin"): $failures CLI rejection check(s) failed" >&2
    exit 1
fi
