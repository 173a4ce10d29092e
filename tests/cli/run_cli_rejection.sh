#!/usr/bin/env bash
# Bench CLI input rejection: malformed or removed flags must fail
# fast with exit 2 and a diagnostic on stderr, never run silently
# with a guessed value. Drives one sweep bench through bench::Session.
#
#   --jobs=abc / 2x / -3 / 99999999999  exit 2, "invalid --jobs value"
#   --shards=4 (removed)                exit 2, "unknown flag"
#   --smoke --jobs=0 (all hw threads)   exit 0
#
# Usage: run_cli_rejection.sh BENCH_BINARY
set -uo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BENCH_BINARY" >&2
    exit 2
fi

bin=$1
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
expect_reject "--shards=4" "unknown flag '--shards'"

rc=0
"$bin" --smoke --jobs=0 > "$tmpdir/out" 2> "$tmpdir/err" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: --smoke --jobs=0 exited $rc, expected 0" >&2
    cat "$tmpdir/err" >&2
    failures=$((failures + 1))
else
    echo "ok: --smoke --jobs=0 -> exit 0"
fi

if [ "$failures" -ne 0 ]; then
    echo "$(basename "$bin"): $failures CLI rejection check(s) failed" >&2
    exit 1
fi
