#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/selfcheck.py [--seeds 10] [--sets 2] [--workloads a,b]

Runs perfbench/run.py on every workload for each seed, in `--sets` sets of
identical runs. Inside a set the workloads are interleaved (seed 1 of every
workload, then seed 2, ...) so host drift spreads over all of them instead
of landing on one. For each end-to-end metric of each workload it reports

  spread  (third quartile - first quartile) / median over the seeds of a set
          (statistics.quantiles(values, n=4)); must stay within the metric's
          bound from BENCHMARK.json, and should stay below a third of it;
  shift   how much worse the last set's median is than the first set's, as
          a share of the first; must stay within the bound.

setup_s is exempt from the spread rule but not from the shift rule. It also
checks that every run was correct with zero failed operations, and that
each seed's digest repeated exactly across sets. Exits 1 on any violation.
Run from the repository root.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.rstrip("\n").split("\n")
    digest = re.search(r'"digest": "([0-9a-f]+)"', out)
    return json.loads(lines[-1]), digest.group(1) if digest else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    # values[set][workload][metric] -> list over seeds
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(args.sets)]
    digests = {}
    problems = []
    for s in range(args.sets):
        for seed in range(1, args.seeds + 1):
            for w in workloads:
                result, digest = run_once(w, seed, args.seconds)
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"{w} seed {seed}: {result['failed']} failed operations")
                if digests.setdefault((w, seed), digest) != digest:
                    problems.append(f"{w} seed {seed}: digest changed between sets")
                for m in metrics:
                    values[s][w][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"set {s + 1} seed {seed:2d} {w:15s} " + " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in metrics),
                    flush=True)

    print(f"\n{'workload':15s} {'metric':13s} {'bound':>6s} " +
          " ".join(f"{'spread' + str(s + 1):>8s}" for s in range(args.sets)) + f" {'shift':>7s}")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            spreads, medians = [], []
            for s in range(args.sets):
                v = values[s][w][name]
                q1, q2, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
                spreads.append((q3 - q1) / q2)
                medians.append(q2)
            sign = 1.0 if m["better"] == "lower" else -1.0
            shift = sign * (medians[-1] - medians[0]) / medians[0]
            spread = max(spreads) if name != "setup_s" else 0.0
            failed = [f for f, bad in (("spread > bound", spread > bound),
                                       ("shift > bound", shift > bound)) if bad]
            note = "; ".join(failed) or ("spread > bound/3" if spread > bound / 3 else "")
            if failed:
                problems.append(f"{w} {name}: {note}")
            print(f"{w:15s} {name:13s} {bound:6.3f} " +
                  " ".join(f"{x:8.4f}" for x in spreads) + f" {shift:+7.4f} {note}")

    for p in problems:
        print("FAIL:", p)
    print("selfcheck:", "FAIL" if problems else "pass")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
