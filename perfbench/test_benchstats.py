#!/usr/bin/env python3
"""Self-checks of the benchmark's statistics on synthetic inputs.

    python3 perfbench/test_benchstats.py
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402


def op(index, latency_ms, error="", estimates=1, abs_error=0.0, end_ms=0.0):
    return {"index": index, "latency_ns": latency_ms * 1e6, "error": error,
            "estimates": estimates, "abs_error": abs_error,
            "end_ns": end_ms * 1e6}


def closed_loop(latencies_ms):
    """Ops of one closed-loop client: each starts when the last ends."""
    ops, clock = [], 0.0
    for index, latency in enumerate(latencies_ms):
        clock += latency
        ops.append(op(index, latency, end_ms=clock))
    return ops


class PercentileTest(unittest.TestCase):
    def test_p99_of_1000_has_10_samples_beyond(self):
        value, beyond = benchstats.nearest_rank(range(1, 1001), 0.99)
        self.assertEqual(value, 990)
        self.assertEqual(beyond, 10)

    def test_beyond_counts_samples_strictly_past_the_rank(self):
        for n, q in ((200, 0.95), (1840, 0.99), (37, 0.5), (1, 0.99)):
            values = list(range(n))
            value, beyond = benchstats.nearest_rank(values, q)
            self.assertEqual(beyond, sum(1 for v in values if v > value))
            self.assertGreaterEqual(n - beyond, q * n - 1e-9)

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(benchstats.nearest_rank(values, 0.6),
                         benchstats.nearest_rank(sorted(values), 0.6))


class GroupMedianTest(unittest.TestCase):
    def test_groups_follow_completion_order_and_near_equal_sizes(self):
        ops = [op(i, 1.0, end_ms=(7 * i) % 23) for i in range(23)]
        groups = benchstats.completion_groups(ops, 5)
        self.assertEqual([len(g) for g in groups], [4, 5, 4, 5, 5])
        ends = [o["end_ns"] for g in groups for o in g]
        self.assertEqual(ends, sorted(ends))
        self.assertEqual(len(benchstats.completion_groups(ops[:3], 5)), 3)

    def test_steady_run_gives_its_rate_and_quantiles(self):
        ops = closed_loop([2.0, 4.0] * 500)  # 1000 ops in 3 s
        stats = benchstats.group_medians(ops, 5, 0.9, window_ms=3000.0)
        self.assertAlmostEqual(stats["est_per_s"], 1000 / 3.0, places=6)
        self.assertEqual(stats["p50_ms"], 3.0)  # median of an even group
        self.assertEqual(stats["tail_ms"], 4.0)
        self.assertEqual(stats["beyond"], 20)

    def test_stall_in_two_of_five_groups_moves_nothing(self):
        steady = [1.0, 2.0, 3.0, 4.0, 5.0] * 200
        stalled = list(steady)
        for i in range(200, 600):  # groups 2 and 3 run 10x slower
            stalled[i] *= 10.0
        a = benchstats.group_medians(closed_loop(steady), 5, 0.9, 1e6)
        b = benchstats.group_medians(closed_loop(stalled), 5, 0.9, 1e6)
        self.assertEqual(a, b)
        stalled[600] *= 1000.0  # a third stalled group: the median moves
        c = benchstats.group_medians(closed_loop(stalled), 5, 0.9, 1e6)
        self.assertLess(c["est_per_s"], a["est_per_s"])

    def test_failed_op_counts_as_the_whole_window_in_its_group(self):
        ops = closed_loop([1.0] * 100)
        ops[10]["error"] = "overloaded"
        ops[11]["error"] = "transport"
        ops[12]["error"] = "internal"
        stats = benchstats.group_medians(ops, 1, 0.97, window_ms=500.0)
        self.assertEqual(stats["tail_ms"], 1.0)
        ops[13]["error"] = "internal"
        stats = benchstats.group_medians(ops, 1, 0.97, window_ms=500.0)
        self.assertEqual(stats["tail_ms"], 500.0)


class FailureAccountingTest(unittest.TestCase):
    def test_outcomes_by_code(self):
        ops = [op(0, 1.0), op(1, 2.0, "overloaded"), op(2, 1.0, "transport"),
               op(3, 1.0, "overloaded"), op(4, 3.0)]
        self.assertEqual(benchstats.count_outcomes(ops), {
            "attempted": 5, "succeeded": 2, "failed": 3,
            "by_code": {"overloaded": 2, "transport": 1}})

    def test_failed_op_is_slower_than_any_limit(self):
        ops = [op(i, 1.0) for i in range(99)] + [op(99, 0.5, "deadline")]
        latencies = benchstats.latencies_ms(ops, window_ms=20000.0)
        self.assertEqual(max(latencies), 20000.0)
        tail, _ = benchstats.nearest_rank(latencies, 0.99)
        self.assertEqual(tail, 1.0)
        ops[98] = op(98, 1.0, "internal")
        tail, _ = benchstats.nearest_rank(
            benchstats.latencies_ms(ops, 20000.0), 0.99)
        self.assertEqual(tail, 20000.0)

    def test_failure_bound_is_never_zero_and_grows_with_failures(self):
        n = 10000
        zero = benchstats.wilson_upper(0, n)
        self.assertGreater(zero, 0.0)
        self.assertAlmostEqual(zero, benchstats.Z95 ** 2 / n, delta=1e-6)
        previous = zero
        for failed in (1, 10, 100, 5000, n):
            bound = benchstats.wilson_upper(failed, n)
            self.assertGreater(bound, previous)
            self.assertGreaterEqual(bound, failed / n)
            self.assertLessEqual(bound, 1.0)
            previous = bound

    def test_failure_bound_at_a_fixed_sample_size(self):
        # No failures: the same bound whatever the throughput.
        self.assertEqual(benchstats.wilson_upper(0, 900, n=500),
                         benchstats.wilson_upper(0, 2000, n=500))
        # One failure in a run of about the reference size moves it a lot.
        self.assertGreater(benchstats.wilson_upper(1, 600, n=500),
                           1.25 * benchstats.wilson_upper(0, 600, n=500))
        self.assertGreaterEqual(benchstats.wilson_upper(7, 10, n=500), 0.7)

    def test_mae_covers_only_the_fixed_prefix_of_successes(self):
        ops = [op(0, 1, abs_error=1.0), op(1, 1, abs_error=3.0),
               op(2, 1, "overloaded"), op(5, 1, abs_error=100.0),
               op(3, 1, estimates=2, abs_error=2.0)]
        self.assertEqual(benchstats.prefix_mae(ops, 4), (6.0 / 4, 4))
        self.assertEqual(benchstats.prefix_mae([], 4), (0.0, 0))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_span_minus_children(self):
        spans = [("op", 0, -1, 0, 100),
                 ("a", 0, 0, 10, 30),
                 ("b", 0, 0, 40, 70),
                 ("c", 0, 2, 45, 50)]
        self.assertEqual(benchstats.span_self_times(spans), [50, 20, 25, 5])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [("op", 0, -1, 0, 100),
                 ("a", 0, 0, 10, 40),
                 ("b", 0, 0, 20, 50),
                 ("c", 0, 0, 90, 120)]
        self.assertEqual(benchstats.span_self_times(spans)[0], 100 - 40 - 10)

    def test_totals_per_name_over_threads(self):
        logs = [[("op", 0, -1, 0, 10), ("x", 0, 0, 2, 5)],
                [("op", 1, -1, 0, 20), ("x", 1, 0, 0, 20)]]
        total, own = benchstats.span_totals(logs)
        self.assertEqual(total, {"op": 30, "x": 23})
        self.assertEqual(own, {"op": 7, "x": 23})

    def test_tree_self_times_add_up_to_the_root(self):
        # op is span-timed with span child "a"; "b" and its child "c" come
        # from program counters.
        tree = {"op": ["a", "b"], "b": ["c"]}
        total = {"op": 100.0, "a": 30.0, "b": 50.0, "c": 20.0}
        span_self = {"op": 70.0, "a": 30.0}
        result = benchstats.tree_self_times(tree, total, span_self)
        self.assertEqual(result, {"op": 20.0, "a": 30.0, "b": 30.0, "c": 20.0})
        self.assertTrue(math.isclose(sum(result.values()), total["op"]))


if __name__ == "__main__":
    unittest.main()
