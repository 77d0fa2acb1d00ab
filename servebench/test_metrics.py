"""Checks the benchmark's own arithmetic on synthetic inputs.

    python3 servebench/test_metrics.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as m  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 201))  # 1..200 in reverse: input order must not matter
        values.reverse()
        self.assertEqual(m.percentile(values, 0.95), (190, 10))
        self.assertEqual(m.percentile(values, 0.50), (100, 100))
        self.assertEqual(m.percentile(values, 0.99), (198, 2))
        self.assertEqual(m.percentile([7.0], 0.99), (7.0, 0))

    def test_ten_samples_beyond(self):
        # p95 needs 200 samples and p99 1,000 before ten lie beyond them.
        self.assertEqual(m.percentile(range(199), 0.95)[1], 9)
        self.assertEqual(m.percentile(range(200), 0.95)[1], m.MIN_BEYOND)
        self.assertEqual(m.percentile(range(999), 0.99)[1], 9)
        self.assertEqual(m.percentile(range(1000), 0.99)[1], m.MIN_BEYOND)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            m.percentile([], 0.5)


class ClockTest(unittest.TestCase):
    def test_latency_counts_from_scheduled_arrival(self):
        # Submitted 0.3 s late by a stalled generator, ready 0.2 s after submit.
        record = {"scheduled": 1.0, "submit": 1.3, "ready": 1.5}
        self.assertAlmostEqual(m.latency_s(record), 0.5)

    def test_closed_loop_latency_is_submit_to_ready(self):
        record = {"scheduled": 2.0, "submit": 2.0, "ready": 2.25}
        self.assertAlmostEqual(m.latency_s(record), 0.25)

    def test_rate_over_timed_window(self):
        self.assertAlmostEqual(m.rate_per_s(100, 2.0, 12.0), 10.0)
        with self.assertRaises(ValueError):
            m.rate_per_s(1, 3.0, 3.0)


class SelfTimeTest(unittest.TestCase):
    def test_union_of_intervals(self):
        self.assertAlmostEqual(m.union_length([(1, 3), (2, 5), (7, 8), (7.5, 7.6)]), 5.0)
        self.assertEqual(m.union_length([]), 0.0)

    def test_self_time_subtracts_union_of_children(self):
        spans = {
            1: (0, 0.0, 10.0),
            2: (1, 1.0, 3.0),
            3: (1, 2.0, 5.0),   # overlaps its sibling: counted once
            4: (1, 8.0, 12.0),  # spills past its parent: clipped to [8, 10]
            5: (3, 2.5, 4.0),   # grandchild: only its parent's self shrinks
        }
        selfs = m.self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[3], 3.0 - 1.5)
        self.assertAlmostEqual(selfs[4], 4.0)
        self.assertAlmostEqual(selfs[5], 1.5)

    def test_nested_self_times_sum_to_root(self):
        spans = {1: (0, 0.0, 1.0), 2: (1, 0.1, 0.6), 3: (2, 0.2, 0.3), 4: (1, 0.6, 0.9)}
        self.assertAlmostEqual(sum(m.self_times(spans).values()), 1.0)


class BenchmarkFileTest(unittest.TestCase):
    def test_run_prints_every_declared_metric_with_its_unit(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        declared = json.loads(path.read_text())
        for section, units in (("end_to_end", run.END_TO_END_UNITS),
                               ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual({e["name"]: e["unit"] for e in declared[section]}, units)
        self.assertEqual([w["name"] for w in declared["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
