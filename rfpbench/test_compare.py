#!/usr/bin/env python3
"""Unit checks of compare.py's verdict rules on fabricated results.

    python3 rfpbench/test_compare.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

LOWER = {"name": "item_ns", "unit": "ns", "better": "lower", "bound": 0.05}
HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05}
PARENT = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9, 100.0]


def scaled(values, factor):
    return [v * factor for v in values]


class VerdictTest(unittest.TestCase):
    def test_faster_in_every_pair_is_a_gain(self):
        v, wins = compare.verdict(LOWER, PARENT, scaled(PARENT, 0.9))
        self.assertEqual((v, wins), ("gain", 10))

    def test_same_values_are_same(self):
        self.assertEqual(compare.verdict(LOWER, PARENT, PARENT)[0], "same")

    def test_slower_beyond_the_bound_is_a_regression(self):
        self.assertEqual(compare.verdict(LOWER, PARENT, scaled(PARENT, 1.1))[0],
                         "regression")
        self.assertEqual(compare.verdict(HIGHER, PARENT, scaled(PARENT, 0.9))[0],
                         "regression")

    def test_wide_spread_is_unresolved(self):
        noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
        self.assertEqual(compare.verdict(LOWER, PARENT, noisy)[0], "unresolved")

    def test_more_failures_make_a_gain_invalid(self):
        v, wins = compare.verdict(LOWER, PARENT, scaled(PARENT, 0.9),
                                  parent_failed=0, change_failed=3)
        self.assertEqual((v, wins), ("invalid", 10))

    def test_failures_the_parent_shares_do_not(self):
        self.assertEqual(compare.verdict(LOWER, PARENT, scaled(PARENT, 0.9),
                                         parent_failed=3, change_failed=3)[0],
                         "gain")

    def test_an_incorrect_run_counts_as_a_failure(self):
        self.assertEqual(compare.failures({"correct": False, "failed": 0}), 1)
        self.assertEqual(compare.failures({"correct": False, "failed": 4}), 4)
        self.assertEqual(compare.failures({"correct": True, "failed": 0}), 0)


class SourceCheckTest(unittest.TestCase):
    RESULT = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}

    def output(self, source_dir):
        return "meta %s\n%s\n" % (json.dumps({"source_dir": source_dir}),
                                  json.dumps(self.RESULT))

    def test_own_binary_is_accepted(self):
        result, meta = compare.parse_output("/a", self.output("/a/rfpbench"))
        self.assertEqual(result, self.RESULT)
        self.assertEqual(meta["source_dir"], "/a/rfpbench")

    def test_another_checkouts_binary_is_rejected(self):
        with self.assertRaises(RuntimeError):
            compare.parse_output("/b", self.output("/a/rfpbench"))


if __name__ == "__main__":
    unittest.main()
