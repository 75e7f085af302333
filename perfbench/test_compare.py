#!/usr/bin/env python3
"""Tests of compare.py's verdicts: python3 perfbench/test_compare.py"""
import json
import tempfile
import unittest
from pathlib import Path

import compare


class VerdictTest(unittest.TestCase):
    PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_clear_gain_is_improved(self):
        change = [v * 1.10 for v in self.PARENT]
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", 0.05),
                         "improved")

    def test_direction_lower_is_better(self):
        change = [v * 0.90 for v in self.PARENT]
        self.assertEqual(compare.verdict(self.PARENT, change, "lower", 0.05),
                         "improved")
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", 0.05),
                         "worse")

    def test_eight_wins_of_ten_is_not_a_gain(self):
        change = [v * 1.10 for v in self.PARENT]
        change[0] = self.PARENT[0] - 1
        change[1] = self.PARENT[1] - 1
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", 0.20),
                         "no change")

    def test_gap_inside_parent_iqr_is_not_a_gain(self):
        # Every pair won, but by less than the parent's own spread.
        change = [v + 0.05 for v in self.PARENT]
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", 0.05),
                         "no change")

    def test_loss_beyond_bound_is_worse(self):
        change = [v * 0.80 for v in self.PARENT]
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", 0.10),
                         "worse")

    def test_loss_within_bound_is_no_change(self):
        change = [v * 0.97 for v in self.PARENT]
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", 0.10),
                         "no change")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0,
                  100.0]
        change = list(reversed(parent))
        self.assertEqual(compare.verdict(parent, change, "higher", 0.10),
                         "unresolved")

    def test_unbounded_metric_uses_mirrored_rule(self):
        change = [v * 0.5 for v in self.PARENT]
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", None),
                         "worse")
        self.assertEqual(compare.verdict(self.PARENT, self.PARENT, "higher",
                                         None), "no change")


class DiffTest(unittest.TestCase):
    def write_set(self, directory, name, values, failed):
        path = Path(directory) / name
        with open(path, "w") as out:
            for seed, value in enumerate(values, start=1):
                result = {"correct": True, "attempted": 1000,
                          "failed": failed,
                          "metrics": {"m": {"value": value, "unit": "s"}}}
                out.write(json.dumps({"workload": "w", "seed": seed,
                                      "trace": 0, "result": result}) + "\n")
        return path

    def test_more_failed_ops_cancel_a_gain(self):
        spec = {"m": ("lower", 0.05)}
        with tempfile.TemporaryDirectory() as d:
            parent = self.write_set(d, "p", [10.0 + i * 0.01 for i in range(10)],
                                    failed=0)
            change = self.write_set(d, "c", [5.0 + i * 0.01 for i in range(10)],
                                    failed=3)
            self.assertEqual(compare.diff(parent, change, spec), 1)
            clean = self.write_set(d, "c2", [5.0 + i * 0.01 for i in range(10)],
                                   failed=0)
            self.assertEqual(compare.diff(parent, clean, spec), 0)

    def test_seed_ranges(self):
        self.assertEqual(compare.parse_seeds("1-3,7"), [1, 2, 3, 7])


if __name__ == "__main__":
    unittest.main()
