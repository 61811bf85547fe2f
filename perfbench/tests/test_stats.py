"""Tests of the benchmark's statistics helpers.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import stats  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_target_kept_when_enough_samples_beyond(self):
        xs = list(range(1, 201))  # 200 samples: p90 leaves 20 beyond
        value, pct, n = stats.tail_percentile(xs, 90)
        self.assertEqual((value, pct, n), (180, 90, 200))
        self.assertGreaterEqual(sum(1 for x in xs if x > value), 10)

    def test_lowered_to_leave_ten_beyond(self):
        xs = list(range(1, 51))  # 50 samples: p90 would leave only 5
        value, pct, n = stats.tail_percentile(xs, 90)
        self.assertEqual(value, 40)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertAlmostEqual(pct, 80.0)
        self.assertEqual(n, 50)

    def test_p99_needs_a_thousand_samples(self):
        xs = list(range(1, 1001))
        self.assertEqual(stats.tail_percentile(xs, 99)[:2], (990, 99))
        xs = list(range(1, 501))
        value, pct, _ = stats.tail_percentile(xs, 99)
        self.assertEqual(value, 490)
        self.assertAlmostEqual(pct, 98.0)

    def test_too_few_samples_fall_back_to_median(self):
        value, pct, n = stats.tail_percentile([5, 1, 3], 90)
        self.assertEqual((value, pct, n), (3, 50.0, 3))

    def test_unsorted_input(self):
        xs = list(range(200, 0, -1))
        self.assertEqual(stats.tail_percentile(xs, 90)[0], 180)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(stats.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))

    def test_spread_is_iqr_over_median(self):
        xs = [10.0] * 5 + [11.0] * 5
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / q2)
        self.assertEqual(stats.spread([7.0] * 10), 0.0)


class PairWin(unittest.TestCase):
    def test_nine_of_ten_wins(self):
        parent = [10.0] * 10
        change = [9.0] * 9 + [11.0]
        self.assertTrue(stats.pair_win(parent, change, "lower"))
        self.assertFalse(stats.pair_win(parent, change, "higher"))

    def test_eight_of_ten_is_not_enough(self):
        parent = [10.0] * 10
        change = [9.0] * 8 + [11.0] * 2
        self.assertFalse(stats.pair_win(parent, change, "lower"))

    def test_ties_count_for_neither(self):
        parent = [10.0] * 10
        change = [9.0] * 9 + [10.0]
        self.assertEqual(stats.pair_wins(parent, change, "lower"), 9)
        self.assertTrue(stats.pair_win(parent, change, "lower"))
        self.assertFalse(stats.pair_win(parent, [10.0] * 10, "lower"))


class Verdict(unittest.TestCase):
    def test_better(self):
        parent = [100.0 + i for i in range(10)]
        change = [80.0 + i for i in range(10)]
        self.assertEqual(stats.verdict(parent, change, "lower", 0.1), "better")
        self.assertEqual(stats.verdict(change, parent, "higher", 0.1), "better")

    def test_worse(self):
        parent = [100.0 + i * 0.1 for i in range(10)]
        change = [120.0 + i * 0.1 for i in range(10)]
        self.assertEqual(stats.verdict(parent, change, "lower", 0.1), "worse")

    def test_within_bound(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]
        change = [101.0, 100.0, 100.5, 99.0, 101.5, 100.0, 99.5, 101.0, 100.0, 100.5]
        self.assertEqual(stats.verdict(parent, change, "lower", 0.1), "within bound")

    def test_no_gain_with_more_failures(self):
        parent = [100.0 + i for i in range(10)]
        change = [80.0 + i for i in range(10)]
        self.assertEqual(stats.verdict(parent, change, "lower", 0.1, 0, 3), "unresolved")
        self.assertEqual(stats.verdict(parent, change, "lower", 0.1, 3, 3), "better")
        # A loss stays a loss.
        self.assertEqual(stats.verdict(change, parent, "lower", 0.1, 0, 3), "worse")

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        parent = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
        change = [105.0, 95.0, 104.0, 96.0, 103.0, 97.0, 102.0, 98.0, 101.0, 99.0]
        self.assertEqual(stats.verdict(parent, change, "lower", 0.1), "unresolved")


if __name__ == "__main__":
    unittest.main()
