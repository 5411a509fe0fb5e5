"""Self-tests of the benchmark's own logic (no engine needed).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import analysis  # noqa: E402


def kernel(name, launches=1, cells=100, nbytes=30400, wall_us=1000.0):
    return {"name": name, "launches": launches, "cells": cells, "bytes": nbytes,
            "wall_us": wall_us}


class Statistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(analysis.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(analysis.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_percentile_interpolates_between_ranks(self):
        xs = [float(i) for i in range(11)]  # 0..10
        self.assertEqual(analysis.percentile(xs, 90.0), 9.0)
        self.assertAlmostEqual(analysis.percentile([1.0, 2.0], 90.0), 1.9)
        self.assertEqual(analysis.percentile([5.0], 90.0), 5.0)
        self.assertEqual(analysis.percentile(xs, 0.0), 0.0)
        self.assertEqual(analysis.percentile(xs, 100.0), 10.0)

    def test_percentile_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            analysis.percentile([], 50.0)
        with self.assertRaises(ValueError):
            analysis.percentile([1.0], 101.0)

    def test_sample_counts(self):
        self.assertEqual(analysis.samples_beyond(100, 90.0), 10)
        self.assertEqual(analysis.samples_beyond(10, 90.0), 1)
        self.assertEqual(analysis.samples_beyond(11, 50.0), 5)
        s = analysis.sample_summary([float(i) for i in range(200)], 90.0)
        self.assertEqual(s["samples"], 200)
        self.assertEqual(s["beyond"], 20)
        self.assertAlmostEqual(s["value"], 179.1)


class Families(unittest.TestCase):
    def test_known_names(self):
        expected = {
            "CASE1": "fused", "CASE0": "fused",
            "SEO0": "stream", "S2": "stream", "E1": "stream", "O3": "stream",
            "C0": "collide", "C12": "collide",
            "A1": "acc", "M1": "merge", "R0": "reset",
        }
        for name, fam in expected.items():
            self.assertEqual(analysis.family(name), fam, name)

    def test_unknown_name_is_an_error(self):
        for name in ("X1", "CASE", "C", "SEOx", "case1", "CASE1a", "M", ""):
            with self.assertRaises(ValueError, msg=name):
                analysis.family(name)

    def test_unknown_kernel_fails_the_family_sums(self):
        with self.assertRaises(ValueError):
            analysis.family_metrics([kernel("CASE1"), kernel("Z9")], 1, 10.0)


class Roofline(unittest.TestCase):
    def test_fraction(self):
        self.assertAlmostEqual(analysis.roofline_frac(2.0, 20.0), 0.1)
        with self.assertRaises(ValueError):
            analysis.roofline_frac(1.0, 0.0)

    def test_family_arithmetic(self):
        # Two CASE launches over 2 steps: 200 cells, 60800 B, 2 ms in total.
        m = analysis.family_metrics(
            [kernel("CASE1", wall_us=1500.0), kernel("CASE2", wall_us=500.0),
             kernel("M1", cells=0, nbytes=8000, wall_us=100.0)],
            steps=2, host_gbps=20.0)
        self.assertAlmostEqual(m["kernels.fused.ms_per_step"], 1.0)
        self.assertAlmostEqual(m["kernels.fused.ns_per_cell"], 2e6 / 200)
        self.assertAlmostEqual(m["kernels.fused.bytes_per_cell"], 304.0)
        self.assertAlmostEqual(m["kernels.fused.gbps"], 60800 / 2e-3 / 1e9)
        self.assertAlmostEqual(m["kernels.fused.roofline_frac"], 60800 / 2e-3 / 1e9 / 20.0)
        self.assertAlmostEqual(m["kernels.fused.launches_per_step"], 1.0)
        # The merge declares no cells: per-cell figures read 0.
        self.assertEqual(m["kernels.merge.ns_per_cell"], 0.0)
        self.assertEqual(m["kernels.merge.bytes_per_cell"], 0.0)
        self.assertAlmostEqual(m["kernels.merge.gbps"], 8000 / 1e-4 / 1e9)
        # Absent families are present and zero.
        self.assertEqual(m["kernels.acc.ms_per_step"], 0.0)
        self.assertEqual(len(m), len(analysis.FAMILIES) * len(analysis.FAMILY_UNITS))


class Reconciliation(unittest.TestCase):
    def raw(self, mode, kernel_us, profiler_us, wall_ms):
        return {"mode": mode, "window_steps": 2, "profiler_wall_us": profiler_us,
                "window_wall_ms": wall_ms, "kernels": [kernel("CASE1", wall_us=kernel_us)]}

    def layers(self, raw):
        m = analysis.family_metrics(raw["kernels"], raw["window_steps"], 20.0)
        step = raw["window_wall_ms"] / raw["window_steps"]
        fam = sum(m[f"kernels.{f}.ms_per_step"] for f in analysis.FAMILIES)
        m["engine.step_ms"] = step
        m["engine.unattributed_ms_per_step"] = step - fam
        return m

    def test_consistent_window_reconciles(self):
        raw = self.raw("eager", 1800.0, 1800.0, 2.0)
        ok, detail = analysis.reconcile(raw, self.layers(raw))
        self.assertTrue(ok, detail)

    def test_dropped_kernel_is_caught(self):
        raw = self.raw("eager", 1000.0, 1800.0, 2.0)
        ok, _ = analysis.reconcile(raw, self.layers(raw))
        self.assertFalse(ok)

    def test_overlap_allowed_only_in_graph_mode(self):
        eager = self.raw("eager", 3000.0, 3000.0, 2.0)
        self.assertFalse(analysis.reconcile(eager, self.layers(eager))[0])
        graph = self.raw("graph", 3000.0, 3000.0, 2.0)
        self.assertTrue(analysis.reconcile(graph, self.layers(graph))[0])


class ResultRecord(unittest.TestCase):
    def test_round_trip(self):
        checks = [{"name": "a", "ok": True, "detail": ""}, {"name": "b", "ok": False, "detail": "x"}]
        units = analysis.END_TO_END_UNITS
        metrics = {name: 1.0 + i / 7 for i, name in enumerate(units)}
        record = analysis.result(checks, metrics, units)
        self.assertEqual((record["correct"], record["attempted"], record["failed"]), (False, 2, 1))
        line = analysis.encode(record)
        self.assertNotIn("\n", line)
        self.assertEqual(analysis.decode(line), record)
        self.assertEqual(record["metrics"]["setup_s"], {"value": metrics["setup_s"], "unit": "s"})

    def test_decode_rejects_malformed_records(self):
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"m": {"value": 1.0, "unit": "s"}}}
        bad = [
            dict(good, extra=1),
            dict(good, attempted=0),
            dict(good, attempted=True),
            dict(good, failed=2),
            dict(good, metrics={"m": {"value": "1", "unit": "s"}}),
            dict(good, metrics={"m": {"value": 1.0}}),
        ]
        analysis.decode(json.dumps(good))
        for record in bad:
            with self.assertRaises(ValueError, msg=record):
                analysis.decode(json.dumps(record))
        with self.assertRaises(ValueError):
            analysis.encode(dict(good, metrics={"m": {"value": float("nan"), "unit": "s"}}))
        with self.assertRaises(ValueError):
            analysis.decode('{"correct": true, "attempted": 1, "failed": 0, '
                            '"metrics": {"m": {"value": NaN, "unit": "s"}}}')

    def test_end_to_end_from_raw(self):
        # 100 nproc steps of 1..100 ms, each followed by 2 reference steps
        # taking 10 ms in all; the 1-thread twin runs at half the speed of
        # its reference. 2000 updates per step, 1000 per reference step.
        raw = {"step_ms": [float(i) for i in range(1, 101)], "ref_ms": [10.0] * 100,
               "ref_steps": 2,
               "step_ms_1t": [20.0] * 12, "ref_ms_1t": [20.0] * 12, "ref_steps_1t": 4,
               "round_steps": 5, "work_per_step": 2000.0, "ref_cells": 1000,
               "setup_s": [0.3, 0.1, 0.2], "peak_rss_mib": 70.0, "modeled_mlups": 1200.0,
               "checks": [{"name": "a", "ok": True, "detail": ""},
                          {"name": "b", "ok": False, "detail": ""}]}
        m, details = analysis.end_to_end(raw)
        self.assertEqual(set(m), set(analysis.END_TO_END_UNITS))
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["pass_rate"], 0.5)
        # Round k takes 5 steps of 5k+1..5k+5 ms against 50 ms of reference
        # work; the median of the 20 rounds lies between rounds 9 and 10.
        ratio = [2000 * 50.0 / (2000 * (25 * k + 15)) for k in range(20)]
        self.assertAlmostEqual(m["mlups_vs_ref"], (ratio[9] + ratio[10]) / 2)
        self.assertAlmostEqual(m["mlups_1t_vs_ref"], 0.5)
        # One reference step takes 5 ms, so a step of s ms is s / 5 of them.
        self.assertAlmostEqual(m["step_p50_vs_ref"], 50.5 / 5)
        self.assertAlmostEqual(details["step_p90_vs_ref"]["value"], 90.1 / 5)
        self.assertEqual(details["step_p90_vs_ref"]["beyond"], 10)
        # The last step of round k takes 5k+5 ms; its median over the 20
        # rounds is (50 + 55) / 2 ms.
        self.assertAlmostEqual(m["guard_step_vs_ref"], 52.5 / 5)
        self.assertEqual(details["guard_step_vs_ref"]["samples"], 20)
        self.assertEqual(details["rounds"], 20)
        self.assertAlmostEqual(details["mlups_1t"], 2000 / 20e3)
        self.assertAlmostEqual(details["ref_mlups_1t"], 4000 / 20e3)
        self.assertAlmostEqual(details["step_ms_p90"], 90.1)

    def test_pairing(self):
        self.assertEqual(analysis.rounds([1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 5, 2),
                         [(3.0, 2.0), (7.0, 2.0)])
        # One round of two steps, 2 reference steps after each: 8 ms for 4
        # reference steps, 2 ms apiece. The third step has no full round.
        self.assertEqual(analysis.in_ref_steps([6.0, 3.0, 9.0], [2.0, 6.0, 1.0], 2, 2),
                         [3.0, 1.5])
        raw = {"step_ms": [1.0], "ref_ms": [1.0], "ref_steps": 1, "round_steps": 2,
               "work_per_step": 1.0, "ref_cells": 1}
        with self.assertRaises(ValueError):
            analysis.paired(raw, "")

    def test_guard_step(self):
        # A heavy last step in every round of three; an outlier round and a
        # trailing partial round do not move it.
        rel = [1.0, 1.0, 3.0, 1.0, 9.0, 3.0, 1.0, 1.0, 8.0, 7.0]
        self.assertEqual(analysis.guard_step(rel, 3), 3.0)
        with self.assertRaises(ValueError):
            analysis.guard_step([1.0], 3)


class Manifest(unittest.TestCase):
    """The metric names and units match BENCHMARK.json and METRICS.md."""

    def setUp(self):
        manifest = BENCH.parent / "BENCHMARK.json"
        if not manifest.exists():
            self.skipTest("BENCHMARK.json not beside the benchmark")
        self.manifest = json.loads(manifest.read_text())

    def test_names_and_units(self):
        e2e = {m["name"]: m["unit"] for m in self.manifest["end_to_end"]}
        self.assertEqual(e2e, analysis.END_TO_END_UNITS)
        layers = {m["name"]: m["unit"] for m in self.manifest["per_layer"]}
        self.assertEqual(layers, analysis.per_layer_units())

    def test_dictionary_lists_every_metric(self):
        text = (BENCH / "METRICS.md").read_text()
        for fam in analysis.FAMILIES:
            self.assertIn(f"`{fam}`", text, fam)
        for key in analysis.FAMILY_UNITS:
            self.assertIn(f"`kernels.F.{key}`", text, key)
        for name in list(analysis.END_TO_END_UNITS) + list(analysis.LAYER_UNITS):
            self.assertIn(f"`{name}`", text, name)

    def test_setup_bound_is_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.manifest["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


if __name__ == "__main__":
    unittest.main()
