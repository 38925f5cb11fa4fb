"""Tests of the benchmark statistics.

Run with: python3 -m unittest discover benchmark/tests
"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import stats  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_samples_beyond_nearest_rank(self):
        # 60 cycles: the p75 rank is 45, so 15 samples lie beyond it.
        self.assertEqual(stats.samples_beyond(60, 75), 15)
        self.assertEqual(stats.samples_beyond(2000, 99), 20)
        self.assertEqual(stats.samples_beyond(1, 50), 0)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertTrue(stats.tail_ok(40, 75))    # 10 beyond
        self.assertFalse(stats.tail_ok(39, 75))   # 9 beyond
        self.assertTrue(stats.tail_ok(1000, 99))  # 10 beyond
        self.assertFalse(stats.tail_ok(999, 99))
        self.assertFalse(stats.tail_ok(2000, 99.9))  # 2 beyond


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, med, q3))
        self.assertEqual(med, 5.5)

    def test_single_value(self):
        self.assertEqual(stats.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(stats.spread([3.0]), 0.0)

    def test_spread_is_quartile_distance_over_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / med)

    def test_spread_of_zero_median(self):
        self.assertEqual(stats.spread([0.0, 0.0, 0.0]), 0.0)
        self.assertTrue(math.isinf(stats.spread([-1.0, 0.0, 1.0, 0.0, 0.0])))


class PairWinTest(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        parent = [10, 10, 10, 10]
        change = [9, 10, 11, 9]
        self.assertEqual(stats.pair_wins(parent, change, "lower"), (2, 1, 1))
        self.assertEqual(stats.pair_wins(parent, change, "higher"), (1, 2, 1))

    def test_unequal_lengths_rejected(self):
        with self.assertRaises(ValueError):
            stats.pair_wins([1, 2], [1], "lower")


class VerdictTest(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]

    def test_improved_needs_nine_tenths_of_pairs(self):
        change = [v * 0.9 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         "improved")
        # Two of ten pairs lost: not a gain, but not a regression either.
        mixed = change[:8] + [v * 1.01 for v in self.parent[8:]]
        self.assertEqual(stats.verdict(self.parent, mixed, "lower", 0.1),
                         "unchanged")

    def test_improved_needs_medians_apart_by_more_than_spread(self):
        # Every pair won by a hair: the medians differ by less than the
        # parent's quartile distance.
        change = [v - 0.01 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         "unchanged")

    def test_regressed_beyond_bound(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         "regressed")
        self.assertEqual(stats.verdict(self.parent, change, "higher", 0.1),
                         "improved")

    def test_within_bound_is_unchanged(self):
        change = [v * 1.05 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0,
                 100.0]
        self.assertGreater(stats.spread(noisy), 0.1)
        change = [v * 1.05 for v in noisy]
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.1),
                         "unresolved")
        # Unless every change run reads better than every parent run.
        skewed = [90.0, 91.0, 92.0, 93.0, 94.0, 200.0, 300.0, 400.0, 500.0,
                  600.0]
        all_better = [89.0] * len(skewed)
        self.assertEqual(stats.verdict(skewed, all_better, "lower", 0.1),
                         "unchanged")
        far_better = [60.0] * len(noisy)
        self.assertEqual(stats.verdict(noisy, far_better, "lower", 0.1),
                         "improved")

    def test_absolute_floor_widens_bound(self):
        parent = [0.020, 0.021, 0.020, 0.022, 0.020, 0.021, 0.020, 0.021,
                  0.020, 0.021]
        change = [v + 0.010 for v in parent]  # +10 ms on 20 ms: +50%
        self.assertEqual(stats.verdict(parent, change, "lower", 0.25),
                         "regressed")
        self.assertEqual(
            stats.verdict(parent, change, "lower", 0.25, abs_floor=0.025),
            "unchanged")

    def test_worse_share_direction(self):
        self.assertAlmostEqual(stats.worse_share(100, 110, "lower"), 0.1)
        self.assertAlmostEqual(stats.worse_share(100, 110, "higher"), -0.1)
        self.assertEqual(stats.worse_share(0, 0, "lower"), 0.0)
        self.assertTrue(math.isinf(stats.worse_share(0, 1, "lower")))


if __name__ == "__main__":
    unittest.main()
