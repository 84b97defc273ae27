"""Self-tests of the benchmark's own logic.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``
(or ``python3 -m unittest perfbench.test_perfbench``).  The smoke tests
run every workload at ``--tiny`` size in a subprocess, about half a
minute in all on two cores.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gate, measure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed_and_unique(self):
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertIsNotNone(re.fullmatch(r"[A-Za-z0-9_.-]+", name), name)
        for metric in metrics:
            self.assertIsNotNone(UNIT.fullmatch(metric["unit"]), metric)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class TailRule(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        self.assertEqual(measure.tail_rank(100), (90, 90))
        self.assertEqual(measure.tail_rank(1000), (99, 990))
        self.assertEqual(measure.tail_rank(24), (58, 14))  # p59 -> rank 15, 9 beyond
        self.assertEqual(measure.tail_rank(48), (79, 38))
        self.assertEqual(measure.tail_rank(20), (50, 10))  # no p51+ qualifies

    def test_value_is_the_nearest_rank_sample(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(measure.tail(values), (90, 90))
        self.assertEqual(measure.tail([1.0, 2.0, 3.0, 4.0]), (2.5, 50))  # median fallback


class CellMedians(unittest.TestCase):
    def test_each_cell_takes_the_median_of_its_repetitions(self):
        passes = [[("a", 1.0), ("b", 5.0)], [("a", 3.0), ("b", 4.0)], [("a", 2.0)]]
        self.assertEqual(measure.cell_medians(passes), {"a": 2.0, "b": 4.5})


class _Profiler:
    def __init__(self):
        self.seconds = {}


class ExclusivePhases(unittest.TestCase):
    def _segment(self, credit):
        profiler = _Profiler()
        spans = measure.Spans(profiler)
        with spans.span("bench.segment"):
            with spans.span("workloads.make_trace"):
                pass
            with spans.span("sim.simulate", cell="x") as attrs:
                attrs["engine"] = "analytic"
                time.sleep(0.02)
                for phase, seconds in credit.items():
                    profiler.seconds[phase] = profiler.seconds.get(phase, 0.0) + seconds
        return spans

    def test_nested_metadata_store_is_subtracted_and_sum_is_wall(self):
        spans = self._segment({"l2_prefetcher": 0.008, "metadata_store": 0.005})
        wall = measure.duration(spans.records[0])
        phases = measure.exclusive_phases(spans, wall)
        self.assertAlmostEqual(phases["l2_prefetcher_excl"], 0.003, places=12)
        self.assertAlmostEqual(phases["metadata_store"], 0.005, places=12)
        self.assertAlmostEqual(sum(phases.values()), wall, places=12)

    def test_double_count_is_rejected(self):
        spans = self._segment({"l2_stream": 5.0, "l2_prefetcher": 5.0})
        with self.assertRaises(measure.AccountingError):
            measure.exclusive_phases(spans, measure.duration(spans.records[0]))


class Conservation(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import repro
        from repro.experiments import common
        from repro.workloads import spec

        trace = spec.make_trace("soplex_k", n_accesses=4_000, seed=2, scale=4)
        result = repro.simulate(
            trace, common.make_spec("triage_1mb"), machine=common.MACHINE,
            warmup_accesses=1_000,
        )
        cls.cell = gate.Cell("soplex_k/triage_1mb", 0.0, len(trace), [result], result.traffic)

    def doctored(self):
        cell = copy.deepcopy(self.cell)
        cell.traffic = cell.results[0].traffic
        return cell

    def test_real_result_obeys_the_laws(self):
        self.assertEqual(gate.law_violations(self.cell), [])

    def test_doctored_results_are_rejected(self):
        cell = self.doctored()
        cell.results[0].counters.dram_accesses += 1
        self.assertTrue(gate.law_violations(cell))
        cell = self.doctored()
        cell.traffic["prefetch"] += 64
        self.assertTrue(gate.law_violations(cell))
        cell = self.doctored()
        cell.traffic["metadata"] += 32
        self.assertTrue(gate.law_violations(cell))

    def test_digest_sees_a_one_count_change(self):
        cell = self.doctored()
        cell.results[0].counters.l1pf_issued += 1
        self.assertNotEqual(gate.digest(cell), gate.digest(self.cell))


class TinySmoke(unittest.TestCase):
    def run_bench(self, workload, trace):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload_emits_every_metric(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        layers = {m["name"] for m in SPEC["per_layer"]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, names in ((0, e2e), (1, layers)):
                with self.subTest(workload=workload, trace=trace):
                    out = self.run_bench(workload, trace)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertEqual(set(out["metrics"]), names)
                    if trace:
                        self.assertEqual(out["metrics"]["failed_frac"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
