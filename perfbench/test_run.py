"""Tests for run.py's comparison rule.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Judge(unittest.TestCase):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_spread_matches_statistics_quantiles(self):
        med, q1, q3, share = run.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        self.assertEqual((q1, q3), (2.75, 8.25))
        self.assertAlmostEqual(share, 5.5 / 5.5)

    def test_clear_win(self):
        change = [x - 10 for x in self.parent]
        self.assertEqual(run.judge(self.parent, change, "lower", 0.1)["verdict"], "win")

    def test_win_needs_nine_of_ten_pairs(self):
        change = [x - 10 for x in self.parent]
        change[0] = change[1] = 200
        j = run.judge(self.parent, change, "lower", 0.1)
        self.assertEqual(j["wins"], 8)
        self.assertNotEqual(j["verdict"], "win")

    def test_win_needs_gap_wider_than_parent_iqr(self):
        change = [x - 0.5 for x in self.parent]
        self.assertEqual(run.judge(self.parent, change, "lower", 0.1)["verdict"], "no change")

    def test_higher_is_better(self):
        change = [x + 10 for x in self.parent]
        self.assertEqual(run.judge(self.parent, change, "higher", 0.1)["verdict"], "win")
        self.assertEqual(run.judge(self.parent, change, "lower", 0.05)["verdict"], "regression")

    def test_regression_beyond_bound(self):
        change = [x * 1.2 for x in self.parent]
        self.assertEqual(run.judge(self.parent, change, "lower", 0.1)["verdict"], "regression")

    def test_wide_parent_spread_is_unresolved(self):
        parent = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
        change = [x * 1.05 for x in parent]
        self.assertEqual(run.judge(parent, change, "lower", 0.1)["verdict"], "unresolved")


if __name__ == "__main__":
    unittest.main()
