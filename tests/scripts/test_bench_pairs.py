#!/usr/bin/env python3
"""Unit tests for the verdict rule of scripts/bench_pairs.py.

    python3 tests/scripts/test_bench_pairs.py [-v]
"""

import importlib.util
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "..", "..", "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

# Ten tight runs around 1.0 (IQR 0.04, well inside a 0.2 bound).
PARENT = [0.98, 1.00, 1.02, 0.99, 1.01, 0.97, 1.03, 1.00, 0.98, 1.02]


def scaled(values, factor):
    return [v * factor for v in values]


class Verdict(unittest.TestCase):
    def test_identical_runs_are_no_worse(self):
        self.assertEqual(verdict(PARENT, list(PARENT), "lower", 0.2), "no worse")

    def test_worse_beyond_the_bound_in_either_direction(self):
        self.assertEqual(verdict(PARENT, scaled(PARENT, 1.3), "lower", 0.2), "worse")
        self.assertEqual(verdict(PARENT, scaled(PARENT, 0.7), "higher", 0.2), "worse")

    def test_worse_inside_the_bound_is_not_worse(self):
        self.assertEqual(verdict(PARENT, scaled(PARENT, 1.1), "lower", 0.2), "no worse")

    def test_worse_takes_precedence_over_a_wide_spread(self):
        wide = [0.5, 1.0, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0]
        self.assertEqual(verdict(PARENT, scaled(wide, 1.5), "lower", 0.2), "worse")

    def test_a_wide_spread_on_either_side_is_unresolved(self):
        wide = [0.5, 1.0, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0]
        self.assertEqual(verdict(wide, list(PARENT), "lower", 0.2), "unresolved")
        self.assertEqual(verdict(PARENT, wide, "lower", 0.2), "unresolved")

    def test_complete_dominance_resolves_a_wide_spread(self):
        wide = [0.5, 1.0, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0]
        faster = scaled(wide, 0.3)  # every change run beats every parent run
        self.assertEqual(verdict(wide, faster, "lower", 0.2), "gain")

    def test_gain_needs_nine_in_ten_pairs_and_a_gap_beyond_the_parent_iqr(self):
        self.assertEqual(verdict(PARENT, scaled(PARENT, 0.9), "lower", 0.2), "gain")
        self.assertEqual(verdict(PARENT, scaled(PARENT, 1.1), "higher", 0.2), "gain")
        # 8 of 10 pairs won: not a gain, however large the median gap.
        mixed = scaled(PARENT, 0.9)
        mixed[0], mixed[1] = 2.0, 2.0
        self.assertEqual(verdict(PARENT, mixed, "lower", 0.2), "no worse")
        # Every pair won, but by less than the parent's IQR.
        self.assertEqual(verdict(PARENT, [v - 0.01 for v in PARENT], "lower", 0.2),
                         "no worse")

    def test_nine_of_ten_pairs_is_enough(self):
        nine = scaled(PARENT, 0.9)
        nine[0] = 2.0
        self.assertEqual(verdict(PARENT, nine, "lower", 0.2), "gain")


if __name__ == "__main__":
    unittest.main()
