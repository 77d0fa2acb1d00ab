"""Checks bench_record's arithmetic on synthetic runs.

    python3 tools/test_bench_record.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_record as br  # noqa: E402

END_TO_END = [{"name": "qps", "unit": "1/s", "better": "higher"},
              {"name": "cpu_ms_per_query", "unit": "ms", "better": "lower"}]


def run(workload, seed, side, qps, cpu, steal=0.5):
    return {"workload": workload, "seed": seed, "side": side, "steal_s": steal,
            "metrics": {"qps": qps, "cpu_ms_per_query": cpu}}


class PairTest(unittest.TestCase):
    def test_first_side_alternates(self):
        self.assertEqual(br.pair_order(0), ("parent", "change"))
        self.assertEqual(br.pair_order(1), ("change", "parent"))
        self.assertEqual(br.pair_order(4), ("parent", "change"))

    def test_traced_pairs_follow_the_pairs_and_keep_alternating(self):
        plan = br.traced_seeds([301, 302, 303, 304, 305, 306, 307, 308, 309, 310])
        self.assertEqual(plan, [(311, 10), (312, 11), (313, 12)])
        self.assertEqual([br.pair_order(index)[0] for _, index in plan],
                         ["parent", "change", "parent"])
        # Seeds out of order: the traced seeds still start past the largest.
        self.assertEqual(br.traced_seeds([7, 3])[0], (8, 2))
        self.assertEqual(len(br.traced_seeds([1, 2])), br.TRACED_PAIRS)

    def test_seed_lists(self):
        self.assertEqual(br.parse_seeds("301-305"), [301, 302, 303, 304, 305])
        self.assertEqual(br.parse_seeds("1,3,7-8"), [1, 3, 7, 8])
        with self.assertRaises(ValueError):
            br.parse_seeds("x")

    def test_wins_follow_each_metric_direction_and_ties_count_for_neither(self):
        runs = [run("ic-cold", 1, "parent", 10.0, 100.0), run("ic-cold", 1, "change", 12.0, 60.0),
                run("ic-cold", 2, "parent", 10.0, 100.0), run("ic-cold", 2, "change", 9.0, 100.0),
                run("ic-cold", 3, "change", 11.0, 50.0)]  # unpaired: counts for neither
        self.assertEqual(br.pairs_better(runs, "qps", "higher"), 1)
        self.assertEqual(br.pairs_better(runs, "cpu_ms_per_query", "lower"), 1)


class SummaryTest(unittest.TestCase):
    def test_per_workload_and_side(self):
        runs = []
        for seed, (parent_cpu, change_cpu) in enumerate([(100, 60), (90, 50), (110, 70)]):
            runs.append(run("ic-cold", seed, "parent", 20.0, parent_cpu, steal=1.0))
            runs.append(run("ic-cold", seed, "change", 30.0, change_cpu, steal=3.0))
        for seed in range(2):
            runs.append(run("lt-churn", seed, "parent", 70.0, 2.0))
            runs.append(run("lt-churn", seed, "change", 70.0, 2.0))
        out = br.summary(runs, END_TO_END)
        self.assertEqual(sorted(out), ["ic-cold", "lt-churn"])
        ic = out["ic-cold"]
        self.assertEqual(ic["pairs"], 3)
        # statistics.quantiles' default (exclusive) method: with three runs
        # the quartiles are the outer runs themselves.
        self.assertEqual(ic["parent"]["cpu_ms_per_query"],
                         {"median": 100, "q1": 90.0, "q3": 110.0, "n": 3})
        self.assertEqual(ic["change"]["cpu_ms_per_query"]["median"], 60)
        self.assertEqual(ic["change"]["steal_s"]["median"], 3.0)
        self.assertEqual(ic["pairs_change_better"], {"qps": 3, "cpu_ms_per_query": 3})
        self.assertEqual(out["lt-churn"]["pairs_change_better"],
                         {"qps": 0, "cpu_ms_per_query": 0})

    def test_traced_runs_and_steal_drops_per_workload(self):
        runs = [run("ic-cold", seed, side, 20.0, 50.0) for seed in range(2)
                for side in ("parent", "change")]
        traced = [{"workload": "ic-cold", "seed": 2, "side": side,
                   "metrics": {"sampling.ms_per_query": ms}}
                  for side, ms in (("change", 13.3), ("parent", 18.5))]
        dropped = [{"workload": "ic-cold", "seed": 1, "side": "parent", "steal_s": 9.0}]
        out = br.summary(runs, END_TO_END, traced, dropped)["ic-cold"]
        self.assertEqual(out["traced"], {
            "parent": {"seeds": [2], "sampling.ms_per_query":
                       {"median": 18.5, "q1": 18.5, "q3": 18.5, "n": 1}},
            "change": {"seeds": [2], "sampling.ms_per_query":
                       {"median": 13.3, "q1": 13.3, "q3": 13.3, "n": 1}}})
        self.assertEqual(out["dropped_for_steal"], 1)

    def test_traced_quartiles_per_side_and_metric(self):
        # Three traced runs per side; a metric a run did not print is left out
        # of that run's sample rather than read as zero.
        traced = []
        for seed, (parent_ms, change_ms) in zip((11, 12, 13), ((18.5, 13.3), (20.0, 12.0),
                                                             (19.0, 14.0))):
            traced.append({"workload": "ic-cold", "seed": seed, "side": "parent",
                           "metrics": {"sampling.ms_per_query": parent_ms,
                                       "graph.build_s": 0.14 + seed / 100}})
            traced.append({"workload": "ic-cold", "seed": seed, "side": "change",
                           "metrics": {"sampling.ms_per_query": change_ms}})
        out = br.traced_summary(traced)
        self.assertEqual(sorted(out), ["change", "parent"])
        self.assertEqual(out["parent"]["seeds"], [11, 12, 13])
        self.assertEqual(out["change"]["seeds"], [11, 12, 13])
        self.assertEqual(out["parent"]["sampling.ms_per_query"],
                         {"median": 19.0, "q1": 18.5, "q3": 20.0, "n": 3})
        self.assertEqual(out["change"]["sampling.ms_per_query"],
                         {"median": 13.3, "q1": 12.0, "q3": 14.0, "n": 3})
        self.assertEqual(out["parent"]["graph.build_s"]["n"], 3)
        self.assertEqual(sorted(out["change"]), ["sampling.ms_per_query", "seeds"])


class ParseTest(unittest.TestCase):
    def test_reads_result_steal_and_digest(self):
        result = {"correct": True, "attempted": 495, "failed": 0,
                  "metrics": {"qps": {"value": 11.0, "unit": "1/s"}}}
        stdout = "\n".join([
            "# workload=ic-cold seed=301 n=56000 m=298342 graph_digest=ab "
            "requests_digest=cd result_digest=ef01",
            "# noise: steal_s=2.50 cpu_s=50.1 window_s=45.0 hardware_threads=4",
            "# qps = 11 1/s",
            json.dumps(result)])
        parsed = br.parse_run(stdout)
        self.assertEqual(parsed["steal_s"], 2.5)
        self.assertEqual(parsed["result_digest"], "ef01")
        self.assertEqual(parsed["metrics"], {"qps": 11.0})
        self.assertTrue(parsed["correct"])
        self.assertEqual((parsed["attempted"], parsed["failed"]), (495, 0))

    def test_reads_a_traced_result_line(self):
        layers = {"sampling.ms_per_query": {"value": 13.3, "unit": "ms"},
                  "sampling.sets_per_s": {"value": 104800.0, "unit": "1/s"},
                  "delta.apply_ms": {"value": 0.0, "unit": "ms"}}
        result = {"correct": True, "attempted": 495, "failed": 0, "metrics": layers}
        stdout = "\n".join([
            "# workload=ic-cold seed=401 n=56000 m=298342 graph_digest=ab "
            "requests_digest=cd result_digest=ef02",
            "# noise: steal_s=0.30 cpu_s=40.0 window_s=9.5 hardware_threads=4",
            "# tracing overhead (traced - untraced): qps -1 1/s",
            "# not exercised: delta.apply_ms (no delta is applied outside lt-churn)",
            "# sampling.ms_per_query = 13.3 ms",
            json.dumps(result)])
        parsed = br.parse_run(stdout)
        self.assertEqual(parsed["metrics"], {"sampling.ms_per_query": 13.3,
                                             "sampling.sets_per_s": 104800.0,
                                             "delta.apply_ms": 0.0})
        self.assertEqual((parsed["steal_s"], parsed["window_s"], parsed["hardware_threads"]),
                         (0.3, 9.5, 4.0))
        self.assertEqual(parsed["result_digest"], "ef02")

    def test_refuses_output_without_a_result(self):
        with self.assertRaises(ValueError):
            br.parse_run("# servebench: build failed\n")


def noisy(steal, window=45.0, threads=4.0):
    return {"steal_s": steal, "window_s": window, "hardware_threads": threads}


class StealTest(unittest.TestCase):
    def test_share_is_of_the_window_cpu(self):
        self.assertAlmostEqual(br.steal_share(noisy(3.6)), 0.02)
        # The same steal in ic-cold's short fixed-count window is a larger share.
        self.assertAlmostEqual(br.steal_share(noisy(0.4, window=10.0)), 0.01)
        # Output without a noise line counts as calm.
        self.assertEqual(br.steal_share(noisy(None, None, None)), 0.0)

    def test_stolen_runs_are_rerun_and_returned(self):
        attempts = iter([noisy(10.5), noisy(4.0), noisy(0.4), noisy(0.1)])
        kept, dropped = br.run_unstolen(lambda: next(attempts))
        self.assertEqual(kept["steal_s"], 0.4)
        self.assertEqual([r["steal_s"] for r in dropped], [10.5, 4.0])

    def test_a_run_at_the_share_is_kept(self):
        kept, dropped = br.run_unstolen(lambda: noisy(3.6))
        self.assertEqual((kept["steal_s"], dropped), (3.6, []))

    def test_reruns_are_bounded_and_the_last_attempt_is_kept(self):
        attempts = iter(noisy(s) for s in (20.0, 21.0, 22.0, 23.0, 24.0))
        kept, dropped = br.run_unstolen(lambda: next(attempts))
        self.assertEqual(kept["steal_s"], 23.0)
        self.assertEqual(len(dropped), br.MAX_RERUNS)


if __name__ == "__main__":
    unittest.main()
