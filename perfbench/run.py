#!/usr/bin/env python3
"""Build the benchmark driver from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
simulator library plus the driver into .bench_build/perfbench (a few
minutes); later calls only check that the build is current. Build output
goes to stderr, and only when the build fails; stdout is the driver's
report, whose last line is the JSON result. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "efd_perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    # Serialise concurrent first runs on one checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "efd_perfbench", "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        # A hung driver (e.g. a deadlocked engine) must not outlive the
        # 180 s a run may take.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with code {proc.returncode}")

    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    missing = declared_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("driver metrics differ from BENCHMARK.json: " + ", ".join(sorted(missing)))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
