#!/usr/bin/env bash
# Host-time profile of one bench binary, rolled up by src/ module.
#
# Builds BENCH under the `profile` preset (release with -pg), runs it
# with the given arguments in build/profile/run-BENCH/ (where gprof's
# gmon.out lands), and prints:
#
#   - the share of self time per src/ module (sim, cpu, mem, kvstore,
#     net, server, cluster, ...), attributing each function to the
#     first mercury::<dir> namespace in its name that names a src/
#     directory; the rest of mercury:: (EventQueue, stats, trace, ...)
#     counts as sim, mercury::bench as bench, anything else (libc,
#     libstdc++ not instantiated on a simulator type) as other.
#     Functions inlined into a caller count in the caller's module;
#   - the top functions of the flat profile.
#
# The full `gprof -b -p` flat profile is kept next to gmon.out.
#
# Usage: scripts/profile.sh BENCH [args...]
#   e.g. scripts/profile.sh fig5_mercury_latency --jobs 1

set -eu -o pipefail

if [ "$#" -lt 1 ]; then
    echo "usage: scripts/profile.sh BENCH [args...]" >&2
    exit 2
fi
bench="$1"
shift

cd "$(dirname "$0")/.."
root=$(pwd)

cmake --preset profile > /dev/null
cmake --build --preset profile -j "$(nproc)" --target "$bench"

binary="$root/build/profile/bench/$bench"
if [ ! -x "$binary" ]; then
    binary="$root/build/profile/examples/$bench"
fi
if [ ! -x "$binary" ]; then
    echo "profile.sh: no bench or example binary named '$bench'" >&2
    exit 2
fi

run_dir="$root/build/profile/run-$bench"
mkdir -p "$run_dir"
rm -f "$run_dir/gmon.out"
(cd "$run_dir" && "$binary" "$@" > stdout.txt)

flat="$run_dir/flat.txt"
gprof -b -p "$binary" "$run_dir/gmon.out" > "$flat"

python3 - "$flat" src/*/ <<'EOF'
import os
import re
import sys

MODULES = {os.path.basename(d.rstrip("/")) for d in sys.argv[2:]}
ROW = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+"
                 r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
NS = re.compile(r"mercury::(\w+)::")


def module_of(name):
    """First mercury::<src dir> namespace in a demangled name."""
    for ns in NS.findall(name):
        if ns in MODULES or ns == "bench":
            return ns
    return "sim" if "mercury::" in name else "other"


rows = []
with open(sys.argv[1]) as f:
    for line in f:
        m = ROW.match(line)
        if m:
            rows.append((float(m.group(3)), m.group(4).strip()))

total = sum(s for s, _ in rows)
if total <= 0:
    sys.exit("profile.sh: the flat profile recorded no samples")

by_module = {}
for seconds, name in rows:
    mod = module_of(name)
    by_module[mod] = by_module.get(mod, 0.0) + seconds

print(f"\nself time by module ({total:.2f} s sampled)")
for mod, seconds in sorted(by_module.items(), key=lambda kv: -kv[1]):
    if seconds > 0:
        print(f"  {mod:<10} {100 * seconds / total:6.1f} %  {seconds:8.2f} s")

print("\ntop functions")
for seconds, name in sorted(rows, key=lambda r: -r[0])[:12]:
    short = name if len(name) <= 70 else name[:67] + "..."
    print(f"  {100 * seconds / total:6.1f} %  {module_of(name):<8} {short}")
EOF
echo
echo "flat profile: $flat"
