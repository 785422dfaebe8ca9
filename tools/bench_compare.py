#!/usr/bin/env python3
"""Compare a BENCH_<figure>.json against a committed baseline.

Used by the CI bench-smoke job and locally after a perf change:

    tools/bench_compare.py BENCH_fig03.json bench/baselines/BENCH_fig03.json

Two kinds of checks:

  * Shape metrics (everything in the "metrics" array except the perf fields
    below) must match the baseline EXACTLY — the figure benches are
    deterministic for a fixed seed, so any drift is a correctness regression,
    not noise. That includes "sim_events_dispatched": the event count is a
    pure function of the bench's config, whatever the worker or shard count.
    The benches write integral metrics exactly (below 2^53) and the rest
    with six significant digits.
  * Perf fields — "wall_clock_s" and the "sim_events_per_sec" metric — may
    drift with the machine; the check fails only on a relative regression
    beyond --max-regress (default 0.25, the ">25%" CI gate). Improvements
    never fail.
  * Profile phases — when both documents embed a profiler tree
    (metrics_snapshot.profile), the top-level bench phases are diffed and
    shifts beyond --max-regress are printed as warnings, pointing at WHERE
    a wall-clock regression happened. Warn-only: phase timings are noisier
    than the wall clock they decompose. Skipped silently when either file
    lacks a profile.

A second input format is detected automatically: google-benchmark JSON
(`--benchmark_format=json` output with a top-level "benchmarks" array, as
produced by bench_micro_kernels). There the comparison is host-independent:
for every `kernel/<kernel>/<impl>/<n>` entry the script computes the SPEEDUP
of each SIMD impl over the scalar entry of the same run, and fails when a
current speedup falls more than --max-regress below the baseline speedup.
Entries present in the baseline but absent from the current run fail as a
tripwire (a kernel silently dropped from the bench would otherwise pass).
Both files must be the same format.

Exit status: 0 on pass, 1 on any failure, 2 on usage/IO errors.
"""

import argparse
import json
import sys

# Perf metrics: threshold-checked (higher is better unless listed in
# LOWER_IS_BETTER), everything else must be bit-equal to the baseline.
PERF_METRICS = {"sim_events_per_sec"}
LOWER_IS_BETTER = {"wall_clock_s"}
# Machine-dependent run descriptors: recorded for provenance, never compared
# (a scalar-forced or non-AVX2 run legitimately differs from the baseline,
# as does the shard count a campus run was launched with).
MACHINE_METRICS = {"carrier_math_impl", "n_shards"}
# Warn-only metrics: compared and printed but never fail the gate. Per-shard
# load balance depends on host core count and scheduling, so a shift is a
# hint for the log reader, not a regression. fault_events tracks a bench's
# chaos profile (0 for fault-free benches; a drift means the fault plan
# changed) and mailbox_peak_occupancy depends on shard interleaving — both
# worth eyeballing, neither a correctness gate.
WARN_METRICS = {"shard_load_balance", "fault_events", "mailbox_peak_occupancy"}
# Exact-match exemptions: perf metrics plus anything machine-dependent.
NON_SHAPE_METRICS = PERF_METRICS | MACHINE_METRICS | WARN_METRICS


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def metric_map(doc, path):
    """Name -> value map of the doc's metrics array.

    Bench writers evolve: tolerate documents whose "metrics" is missing or
    malformed instead of tracebacking mid-CI. A structurally wrong document
    is a usage error (exit 2, like an unreadable file); individual entries
    missing "name"/"value" are skipped with a warning so one bad metric
    cannot mask the comparison of every other one.
    """
    metrics = doc.get("metrics", [])
    if not isinstance(metrics, list):
        print(f"bench_compare: {path}: 'metrics' must be an array, got "
              f"{type(metrics).__name__}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for i, m in enumerate(metrics):
        if not isinstance(m, dict) or "name" not in m:
            print(f"bench_compare: {path}: metrics[{i}] has no 'name'; skipped",
                  file=sys.stderr)
            continue
        if "value" not in m:
            print(f"bench_compare: {path}: metric '{m['name']}' has no 'value';"
                  " skipped", file=sys.stderr)
            continue
        out[m["name"]] = m["value"]
    return out


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_gbench(doc):
    return isinstance(doc.get("benchmarks"), list)


def kernel_times(doc, path):
    """(kernel, n) -> {impl: cpu_time} from a google-benchmark JSON.

    Accepts both plain runs (run_type "iteration") and aggregate runs, where
    the median aggregate is preferred (its name carries a "_median" suffix).
    Entries that are not kernel/<kernel>/<impl>/<n> benches are ignored, so
    the same file may hold unrelated benchmarks.
    """
    plain, median = {}, {}
    for i, b in enumerate(doc["benchmarks"]):
        if not isinstance(b, dict):
            print(f"bench_compare: {path}: benchmarks[{i}] is not an object;"
                  " skipped", file=sys.stderr)
            continue
        name = b.get("name", "")
        cpu = b.get("cpu_time")
        if not isinstance(name, str) or not is_number(cpu) or cpu <= 0:
            continue
        dest = plain
        if name.endswith("_median"):
            name, dest = name[: -len("_median")], median
        elif b.get("run_type") == "aggregate":
            continue  # mean/stddev/cv aggregates
        parts = name.split("/")
        if len(parts) != 4 or parts[0] != "kernel":
            continue
        _, kernel, impl, n = parts
        dest.setdefault((kernel, n), {})[impl] = cpu
    # Median aggregates win over per-repetition entries for the same key.
    out = dict(plain)
    for key, impls in median.items():
        out.setdefault(key, {}).update(impls)
    return out


def compare_kernels(cur, base, args):
    """Host-independent speedup comparison of two google-benchmark files."""
    cur_t = kernel_times(cur, args.current)
    base_t = kernel_times(base, args.baseline)
    failures = []
    for (kernel, n), base_impls in sorted(base_t.items()):
        if "scalar" not in base_impls:
            print(f"  --  kernel/{kernel}/{n}: baseline has no scalar entry")
            continue
        cur_impls = cur_t.get((kernel, n), {})
        if "scalar" not in cur_impls:
            failures.append(
                f"kernel/{kernel}/scalar/{n} missing from {args.current}")
            continue
        for impl, base_cpu in sorted(base_impls.items()):
            if impl == "scalar":
                continue
            label = f"kernel/{kernel}/{impl}/{n}"
            if impl not in cur_impls:
                failures.append(f"{label} missing from {args.current}")
                continue
            base_speedup = base_impls["scalar"] / base_cpu
            cur_speedup = cur_impls["scalar"] / cur_impls[impl]
            ratio = base_speedup / cur_speedup  # >1 means less speedup now
            status = "ok" if ratio <= 1.0 + args.max_regress else "FAIL"
            print(f"  {status:4s}{label:40s} speedup {cur_speedup:.2f}x vs "
                  f"baseline {base_speedup:.2f}x "
                  f"({(ratio - 1.0) * 100.0:+.1f}% vs allowance "
                  f"{args.max_regress * 100.0:.0f}%)")
            if status == "FAIL":
                failures.append(
                    f"'{label}' speedup dropped to {cur_speedup:.2f}x"
                    f" (baseline {base_speedup:.2f}x,"
                    f" > {args.max_regress * 100.0:.0f}% allowed)")
    if not base_t:
        print(f"bench_compare: {args.baseline}: no kernel/<k>/<impl>/<n>"
              " benchmarks found", file=sys.stderr)
        sys.exit(2)
    return failures


def profile_phases(doc):
    """name -> total_ns of the bench's top-level profiler phases.

    Figure benches nest their phases ("phase.setup", "phase.sweep", ...)
    directly under bench::run's root "bench" scope; this returns those
    children. None when the document carries no profile block (old baseline,
    compiled-out build) or the tree has no "bench" root.
    """
    profile = doc.get("metrics_snapshot", {}).get("profile")
    if not isinstance(profile, dict):
        return None
    for top in profile.get("root", {}).get("children", []):
        if top.get("name") == "bench":
            return {c["name"]: c["total_ns"] for c in top.get("children", [])
                    if isinstance(c.get("total_ns"), int)}
    return None


def warn_profile_diff(cur, base, max_regress):
    """Warn-only per-phase comparison of the embedded profiles.

    Phase timings answer "WHERE did the run get slower", which the
    wall-clock gate cannot; but they inherit all of its machine noise plus
    scheduling jitter, so a shifted phase is a hint for the human reading
    the CI log, never a failure. Silent when either document predates the
    profiler.
    """
    cur_p, base_p = profile_phases(cur), profile_phases(base)
    if cur_p is None or base_p is None:
        return
    for name, base_ns in sorted(base_p.items()):
        cur_ns = cur_p.get(name)
        if cur_ns is None:
            print(f"  warn profile phase '{name}' missing from current run")
            continue
        if base_ns <= 0:
            continue
        ratio = cur_ns / base_ns
        status = "ok" if ratio <= 1.0 + max_regress else "warn"
        print(f"  {status:4s}profile {name:24s} {cur_ns / 1e9:.3f}s vs baseline "
              f"{base_ns / 1e9:.3f}s ({(ratio - 1.0) * 100.0:+.1f}%, warn-only)")
    for name in sorted(set(cur_p) - set(base_p)):
        print(f"  warn profile phase '{name}' absent from baseline")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("current", help="freshly produced BENCH_<figure>.json")
    ap.add_argument("baseline", help="committed baseline json")
    ap.add_argument("--max-regress", type=float, default=0.25,
                    help="allowed relative perf regression (default 0.25)")
    ap.add_argument("--skip-perf", action="store_true",
                    help="only check shape metrics (for hosts with no "
                         "comparable baseline timing)")
    args = ap.parse_args()

    cur, base = load(args.current), load(args.baseline)
    if is_gbench(base) != is_gbench(cur):
        print("bench_compare: cannot compare a google-benchmark JSON with a"
              " BENCH_<figure>.json", file=sys.stderr)
        sys.exit(2)
    if is_gbench(base):
        failures = compare_kernels(cur, base, args)
        if failures:
            print(f"\nbench_compare: {len(failures)} failure(s):",
                  file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print(f"\nbench_compare: {args.current} within budget of"
              f" {args.baseline}")
        return 0
    cur_m, base_m = metric_map(cur, args.current), metric_map(base, args.baseline)
    failures = []

    # --- shape: exact equality with the baseline --------------------------
    for name, want in sorted(base_m.items()):
        if name in NON_SHAPE_METRICS:
            continue
        if name not in cur_m:
            failures.append(f"shape metric '{name}' missing from {args.current}")
        elif cur_m[name] != want:
            failures.append(
                f"shape metric '{name}' drifted: {cur_m[name]!r} != baseline {want!r}")
        else:
            print(f"  ok  {name:32s} {want}")

    # --- warn-only: printed for the log reader, never a failure -----------
    for name in sorted(WARN_METRICS):
        got, want = cur_m.get(name), base_m.get(name)
        if not is_number(got) or not is_number(want):
            continue
        status = "ok" if got == want else "warn"
        drift = f" ({(got / want - 1.0) * 100.0:+.1f}%)" if want else ""
        print(f"  {status:4s}{name:32s} current {got:.6g} vs baseline "
              f"{want:.6g}{drift} (warn-only)")

    # --- perf: bounded regression -----------------------------------------
    perf_pairs = [("wall_clock_s", cur.get("wall_clock_s"), base.get("wall_clock_s"))]
    for name in sorted(PERF_METRICS):
        if name in base_m:
            perf_pairs.append((name, cur_m.get(name), base_m[name]))
    for name, got, want in perf_pairs:
        if args.skip_perf:
            print(f"  --  {name:32s} skipped (--skip-perf)")
            continue
        if not is_number(got) or not is_number(want) or want == 0:
            print(f"  --  {name:32s} no comparable baseline value")
            continue
        if name in LOWER_IS_BETTER:
            ratio = got / want            # >1 means slower
        else:
            ratio = want / got if got else float("inf")  # >1 means less throughput
        status = "ok" if ratio <= 1.0 + args.max_regress else "FAIL"
        print(f"  {status:4s}{name:32s} current {got:.6g} vs baseline {want:.6g} "
              f"({(ratio - 1.0) * 100.0:+.1f}% vs allowance {args.max_regress * 100.0:.0f}%)")
        if status == "FAIL":
            failures.append(
                f"perf metric '{name}' regressed {(ratio - 1.0) * 100.0:.1f}%"
                f" (> {args.max_regress * 100.0:.0f}% allowed)")

    # --- profile: per-phase attribution, warn-only ------------------------
    warn_profile_diff(cur, base, args.max_regress)

    if failures:
        print(f"\nbench_compare: {len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nbench_compare: {args.current} within budget of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
