"""Self-tests of the benchmark's statistics.

    python3 perfbench/test_stats.py
"""

import pathlib
import statistics
import sys
import unittest

sys.dont_write_bytecode = True  # write nothing outside the build tree

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [4.0, 1.0, 3.0, 2.0]  # sorted: 1 2 3 4
        self.assertEqual(stats.percentile(xs, 0.0), 1.0)
        self.assertEqual(stats.percentile(xs, 1.0), 4.0)
        self.assertAlmostEqual(stats.percentile(xs, 0.5), 2.5)
        self.assertAlmostEqual(stats.percentile(xs, 0.25), 1.75)

    def test_single_sample_and_errors(self):
        self.assertEqual(stats.percentile([7.0], 0.99), 7.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 1.5)

    def test_tail_keeps_ten_samples_beyond(self):
        # 2000 samples: p99 leaves 20 beyond it, so p99 it is.
        q, v, n = stats.tail([float(i) for i in range(2000)])
        self.assertEqual((q, n), (0.99, 2000))
        self.assertAlmostEqual(v, 0.99 * 1999)
        # 200 samples: p99 would leave 2; the tail backs off to p95.
        q, _, n = stats.tail([float(i) for i in range(200)])
        self.assertAlmostEqual(q, 0.95)
        self.assertEqual(n, 200)
        self.assertGreaterEqual((1 - q) * n, 10 - 1e-9)
        # Too few samples for any tail: the median.
        self.assertEqual(stats.tail_quantile(8), 0.5)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [10.0, 12.0, 11.0, 13.0, 30.0, 9.0, 10.5, 11.5, 12.5, 10.2]
        q1, med, q3, spread = stats.quartile_spread(xs)
        want = statistics.quantiles(xs, n=4)
        self.assertEqual((q1, med, q3), tuple(want))
        self.assertAlmostEqual(spread, (want[2] - want[0]) / want[1])

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([2.0] * 10)[3], 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children(self):
        spans = [
            ("query", -1, 1, 0, 100),
            ("collect", 0, 1, 10, 40),
            ("fetch", 1, 1, 15, 35),
        ]
        self.assertEqual(stats.self_times(spans), [70, 10, 20])

    def test_overlapping_children_count_once(self):
        # Parallel fetches [10,50] and [20,60] cover [10,60]: 50 of 100.
        spans = [
            ("collect", -1, 1, 0, 100),
            ("fetch", 0, 1, 10, 50),
            ("fetch", 0, 1, 20, 60),
        ]
        self.assertEqual(stats.self_times(spans)[0], 50)

    def test_children_clipped_to_parent(self):
        spans = [
            ("collect", -1, 1, 100, 200),
            ("fetch", 0, 1, 50, 150),   # starts before the parent
            ("fetch", 0, 1, 180, 260),  # ends after it
        ]
        self.assertEqual(stats.self_times(spans)[0], 30)

    def test_sequential_self_times_sum_to_root_wall(self):
        spans = [
            ("query", -1, 7, 0, 1000),
            ("union_count", 0, 7, 5, 990),
            ("collect", 1, 7, 10, 400),
            ("fetch.send", 2, 7, 10, 50),
            ("fetch.wait", 2, 7, 50, 380),
        ]
        self.assertEqual(sum(stats.self_times(spans)), 1000)

    def test_parallel_children_overlap_in_the_sum(self):
        # Two parallel fetches: the parent's self time is what neither
        # covers, so self times sum past the wall by the overlap.
        spans = [
            ("collect", -1, 7, 0, 400),
            ("fetch", 0, 7, 0, 300),
            ("fetch", 0, 7, 0, 380),
        ]
        self.assertEqual(stats.self_times(spans), [20, 300, 380])

    def test_table_groups_by_name(self):
        spans = [("a", -1, 1, 0, 2_000_000), ("a", -1, 2, 0, 4_000_000)]
        count, med, total = stats.self_time_table(spans)["a"]
        self.assertEqual(count, 2)
        self.assertAlmostEqual(med, 3.0)
        self.assertAlmostEqual(total, 6.0)


class PushLagTest(unittest.TestCase):
    def test_attributes_revisions_to_parties(self):
        push = {
            "slack": 10.0,
            "h0": 200.0,
            "m0": [100.0, 100.0],
            "parties": [
                {"t": [1.0, 2.0, 3.0], "v": [105.0, 111.0, 112.0]},
                {"t": [1.5, 2.5, 3.5], "v": [100.0, 95.0, 89.0]},
            ],
            # Party 0 crossed at t=2 (|111-100| >= 10) and pushed 112 at
            # t=4.5; party 1 crossed at t=3.5 and pushed 89 at t=6.
            "revisions": [[4.5, 212.0], [6.0, 201.0]],
        }
        lags, unattributed = stats.push_lags(push)
        self.assertEqual(unattributed, 0)
        self.assertEqual(lags, [2.5, 2.5])

    def test_coalesced_revision_matches_both_parties(self):
        push = {
            "slack": 10.0,
            "h0": 200.0,
            "m0": [100.0, 100.0],
            "parties": [
                {"t": [1.0], "v": [120.0]},
                {"t": [2.0], "v": [70.0]},
            ],
            "revisions": [[3.0, 190.0]],
        }
        lags, unattributed = stats.push_lags(push)
        self.assertEqual(unattributed, 0)
        self.assertEqual(sorted(lags), [1.0, 2.0])

    def test_unexplained_change_is_counted(self):
        push = {"slack": 10.0, "h0": 0.0, "m0": [0.0],
                "parties": [{"t": [1.0], "v": [5.0]}],
                "revisions": [[2.0, 42.0]]}
        self.assertEqual(stats.push_lags(push), ([], 1))


if __name__ == "__main__":
    unittest.main()
