"""The benchmark's own tests: checker, steadiness assessment, span maths.

    python3 perfbench/selftest.py

Run from the root of a checkout (the generator tests import ``amls`` from
``src/``).  Uses unittest so it needs nothing beyond the standard library.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402

TRIANGLE_PLUS = "p edge 4 4\ne 1 2\ne 2 3\ne 1 3\ne 3 4\n"  # OPT = 2, e.g. {1, 3}


def solve_output(ids: list[int], samples: int = 5) -> str:
    return f"size {len(ids)}\nsolution {' '.join(map(str, ids))}\n" + json.dumps(
        {"total_samples": samples}
    )


def bounds_row(alpha: float, c: float, gamma: float | None = None) -> str:
    """A correct CSV row computed here, optionally with gamma replaced."""
    brute = 1 + (alpha - 1) ** (alpha - 1) / alpha**alpha
    naive = c ** (1 / alpha)
    emls = 2 - 1 / c
    values = {"brute": brute, "naive": naive, "emls": emls}
    gamma = check.kl_root(alpha, c) if gamma is None else gamma
    dominant = min(values, key=values.__getitem__)
    return "{:.6g},{:.6g},{:.6g},{:.6g},{:.6g},{:.6g},{}".format(
        alpha, c, gamma, brute, naive, emls, dominant
    )


class SolutionChecks(unittest.TestCase):
    def test_accepts_optimal_cover(self):
        verdict = check.check_solution(solve_output([1, 3]), TRIANGLE_PLUS, 1.0, 2, True)
        self.assertTrue(verdict.ok)
        self.assertEqual(verdict.ratio, 1.0)
        self.assertEqual(verdict.samples, 5)

    def test_rejects_non_cover(self):
        verdict = check.check_solution(solve_output([1, 2]), TRIANGLE_PLUS, 1.0, 2, True)
        self.assertFalse(verdict.ok)
        self.assertFalse(verdict.valid)  # invalid even for a probabilistic mode

    def test_rejects_oversized_solution(self):
        out = solve_output([1, 2, 3])
        deterministic = check.check_solution(out, TRIANGLE_PLUS, 1.0, 2, False)
        self.assertFalse(deterministic.ok)
        self.assertFalse(deterministic.valid)
        randomized = check.check_solution(out, TRIANGLE_PLUS, 1.0, 2, True)
        self.assertFalse(randomized.ok)
        self.assertTrue(randomized.valid)  # a probabilistic miss, counted as failed
        self.assertTrue(check.check_solution(out, TRIANGLE_PLUS, 1.5, 2, False).ok)

    def test_rejects_size_line_mismatch_and_bad_ids(self):
        out = solve_output([1, 3]).replace("size 2", "size 1")
        self.assertFalse(check.check_solution(out, TRIANGLE_PLUS, 1.0, 2, False).valid)
        self.assertFalse(check.check_solution(solve_output([1, 1, 3]), TRIANGLE_PLUS, 2, 2, False).valid)
        self.assertFalse(check.check_solution(solve_output([1, 3, 9]), TRIANGLE_PLUS, 2, 2, False).valid)
        self.assertFalse(check.check_solution("error\n", TRIANGLE_PLUS, 1.0, 2, False).valid)

    def test_min_hitting_set_matches_enumeration(self):
        rng = random.Random(5)
        for _ in range(150):
            n = rng.randint(1, 11)
            arity = rng.choice((2, 3))
            pool = list(itertools.combinations(range(n), min(arity, n)))
            sets = [sum(1 << v for v in s) for s in rng.sample(pool, rng.randint(0, min(20, len(pool))))]
            expected = next(
                k
                for k in range(n + 1)
                for combo in itertools.combinations(range(n), k)
                if all(s & sum(1 << v for v in combo) for s in sets)
            )
            self.assertEqual(check.min_hitting_set(n, sets), expected)

    def test_lp_lower_bound(self):
        n, sets = check.parse_instance(TRIANGLE_PLUS)
        self.assertEqual(check.lp_lower_bound(n, sets), 2.0)  # odd cycle: 1.5, plus pendant
        self.assertEqual(check.lp_lower_bound(3, [0b011, 0b110, 0b101]), 1.5)
        self.assertEqual(check.lp_lower_bound(4, [0b0011, 0b1100]), 2.0)


class BoundsChecks(unittest.TestCase):
    GRID = ([1.0, 1.5, 2.0, 3.25], [1.1652, 2.0, 1024.0])

    def table(self, rows):
        return "\n".join([check.BOUNDS_HEADER, *rows]) + "\n"

    def correct_rows(self):
        return [bounds_row(a, c) for a in self.GRID[0] for c in self.GRID[1]]

    def test_accepts_correct_table(self):
        verdict = check.check_bounds(self.table(self.correct_rows()), *self.GRID)
        self.assertTrue(verdict.ok, verdict.message)
        self.assertLess(verdict.ratio, 1.0)

    def test_paper_value(self):
        self.assertAlmostEqual(check.kl_root(2.0, 1024.0), 1.2498, places=4)
        self.assertLess(abs(check.kl_residual(2.0, 1024.0, check.kl_root(2.0, 1024.0))), 1e-9)

    def test_rejects_wrong_gamma(self):
        gamma = check.kl_root(2.0, 2.0)
        for wrong in (gamma * (1 + 1e-5), gamma * (1 - 1e-5), 1.0):
            self.assertIsNotNone(check.check_bounds_row(bounds_row(2.0, 2.0, wrong), 2.0, 2.0))

    def test_rejects_wrong_benchmark_dominant_and_shape(self):
        row = bounds_row(2.0, 1024.0)
        fields = row.split(",")
        self.assertIsNone(check.check_bounds_row(row, 2.0, 1024.0))
        self.assertIsNotNone(check.check_bounds_row(",".join(fields[:3] + ["1.3"] + fields[4:]), 2.0, 1024.0))
        self.assertIsNotNone(check.check_bounds_row(",".join(fields[:6] + ["naive"]), 2.0, 1024.0))
        self.assertIsNotNone(check.check_bounds_row(row, 2.0, 512.0))
        self.assertIsNotNone(check.check_bounds_row(",".join(fields[:6]), 2.0, 1024.0))
        rows = self.correct_rows()
        self.assertFalse(check.check_bounds(self.table(rows[:-1]), *self.GRID).ok)
        self.assertFalse(check.check_bounds(self.table(rows[::-1]), *self.GRID).ok)


class Steadiness(unittest.TestCase):
    SPEC = [
        {"name": "op_s.p50", "unit": "s", "better": "lower", "bound": 0.15},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]

    def runs(self, op_s, setup=0.25):
        return [
            {
                "op_s.p50": {"value": v, "unit": "s"},
                "ops_per_s": {"value": 1 / v, "unit": "1/s"},
                "setup_s": {"value": setup * v, "unit": "s"},
            }
            for v in op_s
        ]

    def problems(self, first, second):
        return {row["metric"]: row["problems"] for row in steady.assess(first, second, self.SPEC)}

    def test_two_steady_sets_pass(self):
        a = self.runs([1.0 + 0.01 * i for i in range(10)])
        b = self.runs([1.02 + 0.01 * i for i in range(10)])
        self.assertEqual(self.problems(a, b), {"op_s.p50": [], "ops_per_s": [], "setup_s": []})

    def test_wide_spread_fails(self):
        steady_set = self.runs([1.0 + 0.01 * i for i in range(10)])
        wide = self.runs([0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5])
        for found in (self.problems(wide, steady_set), self.problems(steady_set, wide)):
            self.assertTrue(all(found.values()), found)

    def test_median_change_fails_either_way(self):
        a = self.runs([1.0] * 9 + [1.01])
        slower = self.runs([1.4] * 9 + [1.41])
        for found in (self.problems(a, slower), self.problems(slower, a)):
            self.assertTrue(all(found.values()), found)


class HostScaling(unittest.TestCase):
    def test_scales_by_the_calibrations_on_either_side(self):
        calibrations = iter([0.08, 0.08, 0.04])  # a host half, then full, reference speed
        real = run.calibrate
        run.calibrate = lambda: next(calibrations) * run.CAL_REF_S / 0.04
        try:
            host = run.HostScale()
            self.assertTrue(math.isclose(host.scale(2.0), 1.0))  # both sides at half speed
            self.assertTrue(math.isclose(host.scale(1.5), 1.0))  # mean of half and full speed
            self.assertTrue(math.isclose(host.run_scale(), 0.5))  # median: half speed
        finally:
            run.calibrate = real
        self.assertEqual(len(host.samples), 3)

    def test_calibrate_takes_real_time(self):
        self.assertGreater(run.calibrate(), 0.0)


class SpanMaths(unittest.TestCase):
    def test_self_time_and_shares(self):
        spans_list = [
            ["cli.main", 0.0, 10.0, -1, None],
            ["cli.parse", 0.5, 1.0, 0, None],
            ["engine.solve", 1.0, 9.0, 0, 4],
            ["combinatorics.select_t", 1.0, 2.0, 2, None],
            ["problems.extend", 2.0, 4.0, 2, 1],
            ["problems.extend", 4.0, 6.0, 2, 0],
            ["problems.membership", 6.0, 6.5, 2, 1],
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans0.json"
            path.write_text(json.dumps({"op": 0, "spans": spans_list}))
            m = spans.layer_metrics([str(path)], traced_s=11.0, untraced_s=10.0)
        self.assertEqual(m["problems.extend.calls"], 2)
        self.assertEqual(m["problems.extend.s"], 4.0)
        self.assertEqual(m["problems.extend.none_frac"], 0.5)
        self.assertEqual(m["engine.samples"], 4)
        self.assertEqual(m["engine.hit_frac"], 0.25)
        self.assertEqual(m["engine.self_s"], 8.0 - 1.0 - 4.0 - 0.5)
        self.assertEqual(m["cli.self_s"], 10.0 - 0.5 - 8.0)
        self.assertTrue(math.isclose(m["tracing.overhead_frac"], 0.1))


class Spec(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        from workloads import LAYERS, WORKLOADS

        spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(set(LAYERS), set(WORKLOADS))
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])
        per_layer = {m["name"] for m in spec["per_layer"]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans0.json"
            path.write_text(json.dumps({"op": 0, "spans": []}))
            self.assertEqual(set(spans.layer_metrics([str(path)], 1.0, 1.0)), per_layer)
        for moves in LAYERS.values():
            self.assertLessEqual(set(moves), per_layer)


class Generator(unittest.TestCase):
    def test_ops_are_a_function_of_the_seed(self):
        from workloads import WORKLOADS

        for workload in WORKLOADS.values():
            first = [workload.op(3, j) for j in range(len(workload.kinds))]
            again = [workload.op(3, j) for j in range(len(workload.kinds))]
            other = [workload.op(4, j) for j in range(len(workload.kinds))]
            self.assertEqual([(o.argv, o.text) for o in first], [(o.argv, o.text) for o in again])
            self.assertNotEqual([(o.argv, o.text) for o in first], [(o.argv, o.text) for o in other])


if __name__ == "__main__":
    unittest.main()
