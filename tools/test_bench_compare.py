#!/usr/bin/env python3
"""Unit tests for bench_compare.py, run from ctest (tier1 label).

Each case shells out to the real script — the exit-status contract
(0 pass / 1 budget failure / 2 usage-or-structure error) is exactly what CI
consumes, so that is the surface under test.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")


def doc(metrics, wall_clock_s=2.0):
    return {"wall_clock_s": wall_clock_s, "metrics": metrics}


def metric(name, value):
    return {"name": name, "value": value}


class CompareTestBase(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return path

    def run_compare(self, cur, base, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, cur, base, *extra],
            capture_output=True, text=True, check=False)


class BenchCompareTest(CompareTestBase):
    def test_identical_docs_pass(self):
        d = doc([metric("median_mbps", 87.5),
                 metric("sim_events_per_sec", 1.0e6)])
        r = self.run_compare(self.write("cur.json", d),
                             self.write("base.json", d))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_shape_drift_fails(self):
        base = doc([metric("median_mbps", 87.5)])
        cur = doc([metric("median_mbps", 87.6)])
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 1)
        self.assertIn("drifted", r.stderr)

    def test_missing_shape_metric_fails(self):
        base = doc([metric("median_mbps", 87.5)])
        cur = doc([])
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 1)
        self.assertIn("missing", r.stderr)

    def test_metrics_as_dict_is_structure_error(self):
        # A bench writer regression turning the array into an object must be
        # a clear exit-2 diagnosis, not a TypeError traceback.
        base = doc([metric("median_mbps", 87.5)])
        cur = dict(doc([]), metrics={"median_mbps": 87.5})
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 2)
        self.assertIn("must be an array", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_valueless_metric_entry_is_skipped_not_crash(self):
        base = doc([metric("median_mbps", 87.5), {"name": "half_done"}])
        cur = doc([metric("median_mbps", 87.5), {"not_a_name": 1}])
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("skipped", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_valueless_entry_in_current_still_counts_as_missing(self):
        base = doc([metric("median_mbps", 87.5)])
        cur = doc([{"name": "median_mbps"}])
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 1)
        self.assertIn("missing", r.stderr)

    def test_non_numeric_perf_value_is_not_comparable(self):
        base = doc([metric("sim_events_per_sec", "fast")], wall_clock_s="n/a")
        cur = doc([metric("sim_events_per_sec", 1.0e6)])
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("no comparable baseline value", r.stdout)

    def test_missing_perf_key_is_not_comparable(self):
        # No sim_events_per_sec / wall_clock_s anywhere: perf silently waived.
        base = doc([metric("median_mbps", 87.5)], wall_clock_s=None)
        cur = doc([metric("median_mbps", 87.5)], wall_clock_s=None)
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_perf_regression_fails_and_skip_perf_waives_it(self):
        base = doc([metric("sim_events_per_sec", 1.0e6)], wall_clock_s=1.0)
        cur = doc([metric("sim_events_per_sec", 0.5e6)], wall_clock_s=2.0)
        cur_p = self.write("cur.json", cur)
        base_p = self.write("base.json", base)
        self.assertEqual(self.run_compare(cur_p, base_p).returncode, 1)
        self.assertEqual(
            self.run_compare(cur_p, base_p, "--skip-perf").returncode, 0)

    def test_event_count_is_an_exact_shape_metric(self):
        # sim_events_dispatched is deterministic: one event more or fewer
        # than the baseline is drift, not throughput noise.
        base = doc([metric("sim_events_dispatched", 13888900)])
        for events in (13888899, 13888901):
            cur = doc([metric("sim_events_dispatched", events)])
            r = self.run_compare(self.write("cur.json", cur),
                                 self.write("base.json", base))
            self.assertEqual(r.returncode, 1, r.stdout)
            self.assertIn("sim_events_dispatched", r.stderr)

    def test_perf_improvement_passes(self):
        base = doc([metric("sim_events_per_sec", 1.0e6)], wall_clock_s=2.0)
        cur = doc([metric("sim_events_per_sec", 2.0e6)], wall_clock_s=1.0)
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_machine_metric_mismatch_is_not_shape_drift(self):
        # carrier_math_impl records which SIMD dispatch entry ran; a forced-
        # scalar leg must still compare clean against an avx2-made baseline.
        base = doc([metric("median_mbps", 87.5), metric("carrier_math_impl", 1)])
        cur = doc([metric("median_mbps", 87.5), metric("carrier_math_impl", 0)])
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_shard_count_mismatch_is_not_shape_drift(self):
        # n_shards records how the campus bench was launched; an
        # EFD_SHARDS=1 run must compare clean against a 4-shard baseline —
        # the digest metrics are the actual gate.
        base = doc([metric("digest6_1000", 696197), metric("n_shards", 4)])
        cur = doc([metric("digest6_1000", 696197), metric("n_shards", 1)])
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_load_balance_drift_warns_but_passes(self):
        base = doc([metric("digest6_1000", 696197),
                    metric("shard_load_balance", 1.1)])
        cur = doc([metric("digest6_1000", 696197),
                   metric("shard_load_balance", 3.7)])
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("warn", r.stdout)
        self.assertIn("shard_load_balance", r.stdout)

    def test_fault_and_mailbox_metrics_warn_but_pass(self):
        # Chaos-profile metrics (PR 9): a changed fault plan or a different
        # shard interleaving shifts these, which warns without failing.
        base = doc([metric("digest6_1000", 696197),
                    metric("fault_events", 0),
                    metric("mailbox_peak_occupancy", 12)])
        cur = doc([metric("digest6_1000", 696197),
                   metric("fault_events", 14),
                   metric("mailbox_peak_occupancy", 57)])
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("warn", r.stdout)
        self.assertIn("fault_events", r.stdout)
        self.assertIn("mailbox_peak_occupancy", r.stdout)

    def test_campus_digest_drift_still_fails(self):
        # The warn-only carve-out must not leak: the digest metrics of the
        # campus bench stay hard shape gates.
        base = doc([metric("digest6_1000", 696197),
                    metric("shard_load_balance", 1.1)])
        cur = doc([metric("digest6_1000", 123456),
                   metric("shard_load_balance", 1.1)])
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 1)
        self.assertIn("digest6_1000", r.stderr)

    def test_unreadable_file_is_usage_error(self):
        base = self.write("base.json", doc([]))
        r = self.run_compare(os.path.join(self.tmp.name, "absent.json"), base)
        self.assertEqual(r.returncode, 2)

    def test_invalid_json_is_usage_error(self):
        base = self.write("base.json", doc([]))
        cur = self.write("cur.json", "{not json")
        r = self.run_compare(cur, base)
        self.assertEqual(r.returncode, 2)


def pnode(name, total_ns, *children):
    return {"name": name, "count": 1, "total_ns": total_ns,
            "self_ns": total_ns, "threads": [], "children": list(children)}


def with_profile(d, *phases):
    """Attach a metrics_snapshot.profile with the given (name, ns) phases."""
    total = sum(ns for _, ns in phases)
    bench = pnode("bench", total, *(pnode(n, ns) for n, ns in phases))
    d = dict(d)
    d["metrics_snapshot"] = {
        "profile": {"enabled": True, "threads": 1, "cpu_total_ns": total,
                    "dropped": 0, "root": pnode("(root)", total, bench)}}
    return d


class ProfilePhaseDiffTest(CompareTestBase):
    """The embedded-profile phase diff is advisory: warnings, never failures."""

    def test_shifted_phase_warns_but_passes(self):
        base = with_profile(doc([metric("median_mbps", 87.5)]),
                            ("phase.setup", 100_000_000),
                            ("phase.sweep", 1_000_000_000))
        cur = with_profile(doc([metric("median_mbps", 87.5)]),
                           ("phase.setup", 100_000_000),
                           ("phase.sweep", 3_000_000_000))  # 3x slower sweep
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("warn", r.stdout)
        self.assertIn("phase.sweep", r.stdout)

    def test_stable_phases_print_ok(self):
        d = with_profile(doc([metric("median_mbps", 87.5)]),
                         ("phase.setup", 100_000_000),
                         ("phase.sweep", 1_000_000_000))
        r = self.run_compare(self.write("cur.json", d),
                             self.write("base.json", d))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("profile phase.setup", r.stdout)
        self.assertIn("profile phase.sweep", r.stdout)

    def test_missing_and_new_phases_warn_but_pass(self):
        base = with_profile(doc([]), ("phase.old", 100_000_000))
        cur = with_profile(doc([]), ("phase.new", 100_000_000))
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("'phase.old' missing from current run", r.stdout)
        self.assertIn("'phase.new' absent from baseline", r.stdout)

    def test_profileless_baseline_is_silently_skipped(self):
        # Committed baselines predate the profiler; comparing against them
        # must neither warn nor fail.
        base = doc([metric("median_mbps", 87.5)])
        cur = with_profile(doc([metric("median_mbps", 87.5)]),
                           ("phase.sweep", 1_000_000_000))
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertNotIn("profile", r.stdout)

    def test_profile_rides_free_on_shape_failure(self):
        # The profile block must not mask or alter the shape verdict.
        base = with_profile(doc([metric("median_mbps", 87.5)]),
                            ("phase.sweep", 1_000_000_000))
        cur = with_profile(doc([metric("median_mbps", 99.9)]),
                           ("phase.sweep", 1_000_000_000))
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 1)
        self.assertIn("drifted", r.stderr)


def gbench(*entries):
    return {"context": {"num_cpus": 1}, "benchmarks": list(entries)}


def kbench(kernel, impl, n, cpu_time, **extra):
    return dict({"name": f"kernel/{kernel}/{impl}/{n}",
                 "run_type": "iteration", "cpu_time": cpu_time}, **extra)


class KernelSpeedupCompareTest(CompareTestBase):
    """google-benchmark mode: per-(kernel, n) speedup-over-scalar budgets."""

    def test_equal_speedups_pass(self):
        d = gbench(kbench("db_to_linear", "scalar", 917, 4000.0),
                   kbench("db_to_linear", "avx2", 917, 1000.0))
        r = self.run_compare(self.write("cur.json", d),
                             self.write("base.json", d))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("4.00x", r.stdout)

    def test_speedup_is_host_independent(self):
        # A 2x slower host with the same scalar/avx2 ratio is not a regression.
        base = gbench(kbench("db_to_linear", "scalar", 917, 4000.0),
                      kbench("db_to_linear", "avx2", 917, 1000.0))
        cur = gbench(kbench("db_to_linear", "scalar", 917, 8000.0),
                     kbench("db_to_linear", "avx2", 917, 2000.0))
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_speedup_regression_fails(self):
        base = gbench(kbench("robo_sum", "scalar", 917, 4000.0),
                      kbench("robo_sum", "avx2", 917, 1000.0))
        cur = gbench(kbench("robo_sum", "scalar", 917, 4000.0),
                     kbench("robo_sum", "avx2", 917, 2000.0))  # 4x -> 2x
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 1)
        self.assertIn("speedup dropped", r.stderr)

    def test_missing_kernel_entry_is_a_tripwire(self):
        base = gbench(kbench("robo_sum", "scalar", 917, 4000.0),
                      kbench("robo_sum", "avx2", 917, 1000.0))
        cur = gbench(kbench("robo_sum", "scalar", 917, 4000.0))
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 1)
        self.assertIn("missing", r.stderr)

    def test_median_aggregates_win_over_repetitions(self):
        # Per-repetition entries drift; the _median aggregate is the signal.
        base = gbench(kbench("robo_sum", "scalar", 917, 4000.0),
                      kbench("robo_sum", "avx2", 917, 1000.0))
        cur = gbench(
            kbench("robo_sum", "scalar", 917, 4000.0),
            kbench("robo_sum", "avx2", 917, 9000.0),  # noisy repetition
            dict(kbench("robo_sum", "scalar", 917, 4000.0),
                 name="kernel/robo_sum/scalar/917_median", run_type="aggregate"),
            dict(kbench("robo_sum", "avx2", 917, 1050.0),
                 name="kernel/robo_sum/avx2/917_median", run_type="aggregate"))
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_mean_stddev_aggregates_are_ignored(self):
        d = gbench(
            kbench("db_to_linear", "scalar", 917, 4000.0),
            kbench("db_to_linear", "avx2", 917, 1000.0),
            dict(kbench("db_to_linear", "avx2", 917, 77.0),
                 name="kernel/db_to_linear/avx2/917_stddev",
                 run_type="aggregate"))
        r = self.run_compare(self.write("cur.json", d),
                             self.write("base.json", d))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_non_kernel_benchmarks_are_ignored(self):
        d = gbench(kbench("db_to_linear", "scalar", 917, 4000.0),
                   kbench("db_to_linear", "avx2", 917, 1000.0),
                   {"name": "BM_other/4", "run_type": "iteration",
                    "cpu_time": 5.0})
        r = self.run_compare(self.write("cur.json", d),
                             self.write("base.json", d))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_no_kernel_entries_in_baseline_is_structure_error(self):
        d = gbench({"name": "BM_other/4", "run_type": "iteration",
                    "cpu_time": 5.0})
        r = self.run_compare(self.write("cur.json", d),
                             self.write("base.json", d))
        self.assertEqual(r.returncode, 2)

    def test_format_mismatch_is_usage_error(self):
        base = gbench(kbench("db_to_linear", "scalar", 917, 4000.0))
        cur = doc([metric("median_mbps", 87.5)])
        r = self.run_compare(self.write("cur.json", cur),
                             self.write("base.json", base))
        self.assertEqual(r.returncode, 2)
        self.assertIn("cannot compare", r.stderr)


if __name__ == "__main__":
    unittest.main()
