"""Tests of the benchmark's own code: the order-statistics helpers, span
self-time, and the metric names and units the one command prints.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import stats  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class OrderStatistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        xs = [float(v) for v in range(1, 11)]
        self.assertEqual(stats.quartiles(xs), [2.75, 5.5, 8.25])

    def test_nearest_rank_percentile(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 90.0), 90)
        self.assertEqual(stats.percentile(xs, 50.0), 50)
        self.assertEqual(stats.percentile([7.0], 90.0), 7.0)
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 100.0), 5)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(99))
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)


class SpanSelfTime(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        # unit [0, 10] with children a [1, 3] and b [4, 8]; b has child c [5, 6].
        spans = [
            {"id": 0, "parent": -1, "t0": 0.0, "t1": 10.0},
            {"id": 1, "parent": 0, "t0": 1.0, "t1": 3.0},
            {"id": 2, "parent": 0, "t0": 4.0, "t1": 8.0},
            {"id": 3, "parent": 2, "t0": 5.0, "t1": 6.0},
        ]
        self.assertEqual(stats.self_times(spans), {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0})

    def test_overlapping_children_count_once(self):
        spans = [
            {"id": 0, "parent": -1, "t0": 0.0, "t1": 10.0},
            {"id": 1, "parent": 0, "t0": 2.0, "t1": 6.0},
            {"id": 2, "parent": 0, "t0": 4.0, "t1": 12.0},  # overlaps and overruns
        ]
        self.assertEqual(stats.self_times(spans)[0], 2.0)


def synthetic_records(workload):
    """A minimal record stream of the shape the perfbench program prints."""
    recs = [{"rec": "meta", "workload": workload, "threads": 1}]
    uid = 0
    for traced in (False, True):
        for k in range(3):
            uid += 1
            recs.append({"rec": "unit", "id": uid, "kind": "native", "s": 0.005 + 1e-4 * k,
                         "ops": 0, "trunc_ops": 0, "traced": False})
            recs += [{"rec": "inner", "unit": uid, "ms": 0.4 + 0.01 * i} for i in range(12)]
            uid += 1
            recs.append({"rec": "unit", "id": uid, "kind": "main", "s": 0.4 + 0.01 * k,
                         "ops": 7e6, "trunc_ops": 6.6e6, "traced": traced})
            recs.append({"rec": "setup", "s": 0.001})
            recs.append({"rec": "check", "unit": uid, "name": "observable_repeats", "ok": True,
                         "detail": ""})
            recs += [{"rec": "inner", "unit": uid, "ms": 30.0 + i} for i in range(12)]
    recs.append({"rec": "rss", "peak_mb": 12.5})
    _, layer_names = run.benchmark_names()
    for name in layer_names:
        recs.append({"rec": "metric", "name": name, "value": 1.5, "unit": "count"})
    return recs


class PrintedMetrics(unittest.TestCase):
    def test_benchmark_json_names(self):
        e2e, layer = run.benchmark_names()
        for name in e2e + layer:
            self.assertRegex(name, NAME_RE)
            self.assertEqual(NAME_RE.fullmatch(name).group(0), name)
        self.assertEqual(sorted(e2e), sorted(run.END_TO_END_UNITS))
        self.assertEqual(len(set(e2e + layer)), len(e2e + layer))

    def test_every_metric_printed_with_unit(self):
        e2e, layer = run.benchmark_names()
        for traced, names in ((False, e2e), (True, layer)):
            recs = synthetic_records("sedov_op")
            lines, result = run.summarize("sedov_op", traced, recs, [], names)
            self.assertEqual(sorted(result["metrics"]), sorted(names))
            for name, m in result["metrics"].items():
                self.assertTrue(NAME_RE.fullmatch(name), name)
                self.assertTrue(m["unit"], name)
                self.assertTrue(any(name in line and m["unit"] in line for line in lines), name)
            self.assertTrue(result["correct"])
            self.assertEqual(result["attempted"], 6)
            json.dumps(result)

    def test_failed_check_fails_its_unit(self):
        recs = synthetic_records("sedov_op")
        recs.append({"rec": "check", "unit": 0, "name": "setup", "ok": False, "detail": ""})
        _, result = run.summarize("sedov_op", False, recs, [], run.benchmark_names()[0])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_missing_metric_is_an_error(self):
        recs = [r for r in synthetic_records("sedov_op") if r["rec"] != "rss"]
        with self.assertRaises(run.BenchError):
            run.summarize("sedov_op", False, recs, [], run.benchmark_names()[0])

    def test_inputs_follow_the_seed(self):
        self.assertEqual(run.generate_inputs(7), run.generate_inputs(7))
        self.assertNotEqual(run.generate_inputs(7), run.generate_inputs(8))
        for k, (lo, hi) in run.JITTER.items():
            self.assertTrue(lo <= run.generate_inputs(3)[k] <= hi, k)


if __name__ == "__main__":
    unittest.main()
