#!/usr/bin/env python3
"""Alternating A/B perfbench runs: a base commit against the tree.

Exports the base commit (default HEAD) with `git archive` into a
scratch directory, then runs `perfbench/run.py` from both sides --
the base's own copy in the export and the working tree's -- so each
side builds its own binary from its own sources (run.py keeps the
build tree under `.bench_build/` of the side it lives in). The
export is a plain directory, not a worktree, so nothing is added to
`.git`.

For each workload it runs N pairs. Pair i runs the base first when i
is even and the tree first when i is odd, so slow drift on a shared
host lands on both sides alike. It then prints, per end-to-end
metric: both medians, the median of the per-pair change/base
ratios, how many pairs the change won (by the metric's direction in
BENCHMARK.json), the base's interquartile range, and whether the
two medians differ by more than that IQR.

    tools/abperf.py --pairs 10 --seconds 10 [--base REV]
                    [--workload NAME ...] [--seed N]
                    [--scratch DIR] [--trajectory FILE]

With --trajectory, one JSON line per workload is appended to FILE
(for instance BENCH_trajectory.jsonl at the repository root).

Exit codes: 0 every run correct, 1 any run reported
`correct: false` or `failed > 0`, 2 usage or setup error.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# run.py puts its build tree under CARGO_TARGET_DIR when that is set;
# an absolute one would be shared by both sides, so drop it and let
# each side build under its own .bench_build/.
SIDE_ENV = {k: v for k, v in os.environ.items()
            if k != "CARGO_TARGET_DIR"}


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def export(rev, dest):
    """Unpack the tree of @p rev into @p dest (replacing it)."""
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                       stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(dest)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_side(root, workload, seed, seconds):
    """One perfbench run from the checkout at @p root."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, env=SIDE_ENV, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def build_side(root):
    """Build through run.py's own path and check its oracle pins."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--self-test"],
        cwd=root, env=SIDE_ENV, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"abperf: perfbench self-test failed in {root}:\n"
                 f"{proc.stdout}")


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(metric, base_runs, change_runs):
    name = metric["name"]
    higher = metric["better"] == "higher"
    base = [r["metrics"][name]["value"] for r in base_runs]
    change = [r["metrics"][name]["value"] for r in change_runs]
    ratios = [c / b for b, c in zip(base, change) if b]
    wins = sum((c > b) if higher else (c < b)
               for b, c in zip(base, change))
    q1, q3 = quartiles(base)
    base_med = statistics.median(base)
    change_med = statistics.median(change)
    return {
        "base_median": base_med,
        "change_median": change_med,
        "median_ratio": statistics.median(ratios) if ratios else None,
        "wins": wins,
        "pairs": len(base),
        "base_iqr": q3 - q1,
        "clears_iqr": abs(change_med - base_med) > q3 - q1,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default="HEAD",
                    help="commit to compare the working tree against")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scratch",
                    default=os.path.join(tempfile.gettempdir(),
                                         "abperf"),
                    help="where the base commit is exported")
    ap.add_argument("--trajectory",
                    help="append one JSON line per workload here")
    opts = ap.parse_args()
    if opts.pairs < 2:
        ap.error("--pairs must be at least 2")

    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    workloads = opts.workload or names
    for w in workloads:
        if w not in names:
            ap.error(f"unknown workload {w}; BENCHMARK.json has "
                     f"{', '.join(names)}")

    base_rev = git("rev-parse", opts.base)
    change_rev = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        change_rev += "+dirty"
    base_root = os.path.join(os.path.abspath(opts.scratch), "base")
    print(f"abperf: base {base_rev[:12]} exported to {base_root}",
          flush=True)
    export(base_rev, base_root)
    sides = {"base": base_root, "change": ROOT}
    for root in sides.values():
        build_side(root)

    ok = True
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(opts.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change",
                                                           "base")
            for side in order:
                res = run_side(sides[side], workload, opts.seed,
                               opts.seconds)
                if not res["correct"] or res["failed"] > 0:
                    ok = False
                    print(f"abperf: {workload} {side} pair {i}: "
                          f"correct={res['correct']} "
                          f"failed={res['failed']}", flush=True)
                runs[side].append(res)
        print(f"\n{workload}: {opts.pairs} alternating pairs, "
              f"{opts.seconds} s each, seed {opts.seed}")
        print(f"  {'metric':<15}{'base':>12}{'change':>12}"
              f"{'ratio':>8}{'wins':>8}{'base IQR':>12}  clears IQR")
        row = {}
        for metric in bench["end_to_end"]:
            s = summarize(metric, runs["base"], runs["change"])
            row[metric["name"]] = s
            ratio = (f"{s['median_ratio']:.3f}"
                     if s["median_ratio"] is not None else "-")
            print(f"  {metric['name']:<15}{s['base_median']:>12.4g}"
                  f"{s['change_median']:>12.4g}{ratio:>8}"
                  f"{s['wins']:>5}/{s['pairs']:<2}"
                  f"{s['base_iqr']:>12.4g}  "
                  f"{'yes' if s['clears_iqr'] else 'no'}")
        sys.stdout.flush()
        if opts.trajectory:
            with open(opts.trajectory, "a") as f:
                f.write(json.dumps({
                    "date": datetime.date.today().isoformat(),
                    "base": base_rev,
                    "change": change_rev,
                    "nproc": os.cpu_count(),
                    "workload": workload,
                    "pairs": opts.pairs,
                    "seconds": opts.seconds,
                    "seed": opts.seed,
                    "correct": all(r["correct"] and r["failed"] == 0
                                   for side in runs.values()
                                   for r in side),
                    "metrics": row,
                }) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
