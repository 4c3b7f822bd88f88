"""Unit tests for run.py's helpers: python3 -m unittest discover -s perfbench"""

import statistics
import unittest

import run


class SpreadTest(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / q2)
        self.assertAlmostEqual(run.spread(values), (8.25 - 2.75) / 5.5)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(run.spread([3.0] * 10), 0.0)


class AssembleTest(unittest.TestCase):
    declared = [("a", "ms"), ("net.b", "s")]

    def driver(self, values, idle=()):
        return {"correct": True, "attempted": 3, "failed": 0, "values": values, "idle_layers": list(idle)}

    def test_units_come_from_the_declaration(self):
        report, problems = run.assemble(self.driver({"a": 1.5, "net.b": 2}), self.declared)
        self.assertEqual(problems, [])
        self.assertEqual(report["metrics"], {"a": {"value": 1.5, "unit": "ms"}, "net.b": {"value": 2, "unit": "s"}})
        self.assertTrue(report["correct"])

    def test_idle_layers_report_zero(self):
        report, problems = run.assemble(self.driver({"a": 1.5}, idle=["net"]), self.declared)
        self.assertEqual(problems, [])
        self.assertEqual(report["metrics"]["net.b"]["value"], 0.0)

    def test_missing_undeclared_and_non_finite_metrics_fail(self):
        report, problems = run.assemble(self.driver({"a": float("nan"), "c": 1}), self.declared)
        self.assertEqual(len(problems), 3, problems)
        self.assertFalse(report["correct"])

    def test_a_failed_driver_stays_incorrect(self):
        driver = dict(self.driver({"a": 1, "net.b": 2}), correct=False, attempted=0)
        report, _ = run.assemble(driver, self.declared)
        self.assertFalse(report["correct"])
        self.assertEqual(report["attempted"], 1)


if __name__ == "__main__":
    unittest.main()
