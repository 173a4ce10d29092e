#!/usr/bin/env python3
"""Host-speed benchmark of the Mercury/Iridium simulator.

Builds perfbench/ (a CMake package that compiles the simulator from
../src) into .bench_build/, runs one workload in one process on one
thread, checks the modeled outputs against the digests pinned in
pins.json and prints the result as the last line of stdout:

  python3 perfbench/run.py --workload mercury-etc-get --seed 7 \\
      --seconds 10 --trace 0

  {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics. Two maintenance modes:

  --self-test  shows the oracle trips: a model with one extra tick of
               data-device latency must miss every pinned digest,
               and the unperturbed model must match all of them.
  --pin        re-pins pins.json from the current build (only for a
               change that is meant to alter the modeled outputs).

See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("mercury-etc-get", "iridium-etc-mixed", "cluster-bypass-zipf")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found "
                 "next to perfbench/; run from a full checkout")
    out = build_dir()
    # Compiler scratch files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)
    return os.path.join(out, "perfbench")


def run_binary(binary, *args):
    proc = subprocess.run([binary, *map(str, args)], check=True,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_pins():
    with open(PINS) as f:
        return json.load(f)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def self_test(binary):
    pins = load_pins()["digests"]
    ok = True
    for w in WORKLOADS:
        clean = run_binary(binary, "--workload", w, "--digest-only")
        bent = run_binary(binary, "--workload", w, "--digest-only",
                          "--perturb")
        matches = clean["oracle_digest"] == pins[w]
        trips = bent["oracle_digest"] != pins[w]
        print(f"{w}: unperturbed {'matches' if matches else 'MISSES'}"
              f" the pin; +1 tick {'trips' if trips else 'DOES NOT TRIP'}"
              " the oracle")
        ok = ok and matches and trips
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def pin(binary):
    runs = {w: run_binary(binary, "--workload", w, "--digest-only")
            for w in WORKLOADS}
    digests = {w: r["oracle_digest"] for w, r in runs.items()}
    seed = runs[WORKLOADS[0]]["oracle_seed"]
    with open(PINS, "w") as f:
        json.dump({"seed": seed, "digests": digests}, f, indent=2)
        f.write("\n")
    print(json.dumps(digests, indent=2))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--pin", action="store_true")
    opts = ap.parse_args()

    binary = build()
    if opts.self_test:
        return self_test(binary)
    if opts.pin:
        return pin(binary)
    if not opts.workload:
        ap.error("--workload is required")

    res = run_binary(binary, "--workload", opts.workload,
                     "--seed", opts.seed, "--seconds", opts.seconds,
                     "--trace", opts.trace)
    pins = load_pins()
    pinned = pins["digests"][opts.workload]
    digest_ok = (res["oracle_seed"] == pins["seed"] and
                 res["oracle_digest"] == pinned)
    attempted = res["attempted"]
    # A digest mismatch fails every op of the workload.
    failed = attempted if not digest_ok else res["identity_failures"]

    provenance = {
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        **{k: res[k] for k in ("compiler", "build_type", "sanitize",
                               "extra_checks", "tracing",
                               "profile_events")}}
    print(json.dumps({"provenance": provenance}))
    print(f"{opts.workload} seed={opts.seed}: "
          f"error_rate={failed / attempted:.6g} "
          f"({failed} failed / {attempted} attempted), "
          f"oracle digest {res['oracle_digest']} "
          f"{'matches' if digest_ok else 'DOES NOT MATCH'} pin {pinned}")

    values = res["per_layer"] if opts.trace else res
    metrics = {}
    for m in metric_specs(opts.trace):
        if m["name"] not in values:
            sys.exit(f"perfbench: binary did not report {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]],
                              "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
