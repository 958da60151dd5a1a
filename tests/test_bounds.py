"""Exponent-base calculator: frozen values and analytic properties.

Frozen expected values were computed with 50-digit mpmath arithmetic
(entropy/divergence from their closed forms, the implicit-equation base by
200 bisection steps) and rounded to double precision.
"""

import math
import random

import pytest

from amls.bounds import (
    CSV_HEADER,
    BoundReport,
    TOL,
    _certified_interval,
    _divergence,
    amls_bound,
    bound_report,
    bound_table,
    brute_bound,
    emls_bound,
    entropy,
    format_csv_rows,
    naive_bound,
)
from reference import kl_divergence

ALPHA_GRID = [1 + i / 10 for i in range(21)]  # 1.0, 1.1, ..., 3.0
C_GRID = [1.01, 1.1, 2.0, 10.0, 1024.0]

# 50-digit oracle values
ENTROPY_1_OVER_1_1 = 0.3046360973492381
KL_HALF_QUARTER = 0.14384103622589046
AMLS_2_1024 = 1.2498168647180083
AMLS_1_1_1_1652 = 1.1140157955492186
AMLS_1_5_2 = 1.2175678815553798
AMLS_3_10 = 1.1375027972663401


class TestEntropy:
    def test_endpoints_are_zero(self):
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_frozen_value(self):
        assert entropy(1 / 1.1) == pytest.approx(ENTROPY_1_OVER_1_1, abs=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            entropy(p)

    def test_symmetry(self):
        rng = random.Random(1)
        for _ in range(200):
            p = rng.random()
            assert entropy(p) == pytest.approx(entropy(1 - p), abs=1e-12)


class TestKlDivergence:
    def test_zero_iff_equal(self):
        assert kl_divergence(0.3, 0.3) == 0.0

    def test_degenerate_a_one(self):
        assert kl_divergence(1.0, 0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_frozen_value(self):
        assert kl_divergence(0.5, 0.25) == pytest.approx(KL_HALF_QUARTER, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(-0.1, 0.5), (1.2, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_domain_errors(self, a, b):
        with pytest.raises(ValueError):
            kl_divergence(a, b)

    def test_gibbs_inequality_on_random_grid(self):
        rng = random.Random(7)
        for _ in range(500):
            a = rng.random()
            b = rng.uniform(1e-6, 1 - 1e-6)
            d = kl_divergence(a, b)
            if abs(a - b) > 1e-9:
                assert d > 0.0
        for b in (0.1, 0.37, 0.9):
            assert kl_divergence(b, b) == 0.0


class TestAmlsBound:
    @pytest.mark.parametrize("c", [1.1, 2.0, 10.0, 1024.0])
    def test_collapses_to_emls_at_alpha_one(self, c):
        assert amls_bound(1.0, c) == pytest.approx(2 - 1 / c, abs=1e-9)

    def test_frozen_roots(self):
        assert amls_bound(2, 1024) == pytest.approx(AMLS_2_1024, abs=1e-9)
        assert amls_bound(1.1, 1.1652) == pytest.approx(AMLS_1_1_1_1652, abs=1e-9)
        assert amls_bound(1.5, 2) == pytest.approx(AMLS_1_5_2, abs=1e-9)
        assert amls_bound(3, 10) == pytest.approx(AMLS_3_10, abs=1e-9)

    def test_degenerate_c(self):
        assert amls_bound(1.5, 1.0) == 1.0

    def test_defining_equation_on_grid(self):
        for alpha in ALPHA_GRID:
            for c in C_GRID:
                gamma = amls_bound(alpha, c)
                residual = kl_divergence(1 / alpha, (gamma - 1) / (c - 1))
                assert residual == pytest.approx(math.log(c) / alpha, abs=1e-9)

    def test_inside_open_interval(self):
        for alpha in ALPHA_GRID:
            for c in C_GRID:
                gamma = amls_bound(alpha, c)
                assert 1.0 < gamma < 1.0 + (c - 1.0) / alpha

    def test_strict_dominance_over_benchmarks(self):
        for alpha in ALPHA_GRID:
            for c in C_GRID:
                gamma = amls_bound(alpha, c)
                assert gamma < min(brute_bound(alpha), naive_bound(alpha, c))
                if alpha > 1.0:
                    assert gamma < emls_bound(c)

    def test_strictly_increasing_in_c(self):
        for alpha in ALPHA_GRID:
            values = [amls_bound(alpha, c) for c in C_GRID]
            assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))

    def test_strictly_decreasing_in_alpha(self):
        for c in C_GRID:
            values = [amls_bound(alpha, c) for alpha in ALPHA_GRID]
            assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))

    def test_rational_upper_bound(self):
        for alpha in ALPHA_GRID:
            for c in C_GRID:
                assert amls_bound(alpha, c) < alpha * c / (1 + (alpha - 1) * c)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0, 3.0])
    def test_converges_to_brute(self, alpha):
        assert abs(amls_bound(alpha, 1e9) - brute_bound(alpha)) <= 1e-3

    def test_bit_identical_repeats(self):
        pairs = [(1.0, 2.0), (1.3, 1.7), (2.0, 1024.0)]
        pairs += [(alpha, c) for alpha in (1.0, 1.3, 2.0) for c in (1.5, 7.0)]
        for alpha, c in pairs:
            assert amls_bound(alpha, c) == amls_bound(alpha, c)

    def test_invalid_queries(self):
        with pytest.raises(ValueError):
            amls_bound(0.9, 2.0)
        with pytest.raises(ValueError):
            amls_bound(1.5, 0.5)
        # a first bracket no wider than TOL is valid and returns its midpoint
        for alpha, c in [(1e13, 2.0), (2.0, 1.000000000001), (1e300, 1.0 + 2.0**-52)]:
            hi = 1.0 + (c - 1.0) / alpha
            assert hi - 1.0 <= TOL
            assert amls_bound(alpha, c) == 0.5 * (1.0 + hi)

    def test_extreme_parameters_stay_bracketed(self):
        # TOL is an absolute tolerance on the root itself: a finer bisection
        # must land within TOL of the answer
        assert TOL == 1e-12
        for alpha, c in [(50.0, 2.0), (1.0001, 1.0000001), (3.0, 1e12)]:
            gamma = amls_bound(alpha, c)
            assert 1.0 < gamma < 1.0 + (c - 1.0) / alpha
            assert abs(gamma - self._reference_bisection(alpha, c, 1e-15)) <= 1e-12

    def test_divergence_is_inf_where_b_underflows(self):
        # the guard for a midpoint whose b = (gamma-1)/(c-1) rounds to 0
        a = 1.0 / 1e16
        assert (2.0**-52 / 1.7e308) == 0.0
        assert _divergence(1.0 + 2.0**-52, a, 1.0 - a, 1.7e308) == math.inf
        assert math.isfinite(_divergence(1.0 + 2.0**-52, a, 1.0 - a, 1e300))

    def test_float_range_edges_stay_bracketed(self):
        # valid (alpha, c) at the edges of the float range, where the bracket
        # (1, 1 + (c-1)/alpha) can be narrower than TOL or one ulp and
        # alpha**alpha overflows; each query must return a bracketed base and
        # a finite brute
        rng = random.Random("float range edges")
        alphas = [1.0, 1.0 + 2.0**-52, 143.0, 144.0, 1e3, 1e16, 1e300, math.exp(20.0)]
        cs = [1.0, 1.0 + 2.0**-52, 2.0, 1e100, 1e300, 1.7e308, math.exp(709.0)]
        pairs = [(1e16, 1.7e308), (144.0, 2.0), (1e12, 2.0), (2.0, 1.000000000001)]
        while len(pairs) < 3000:
            alpha = rng.choice(
                [rng.choice(alphas), 10.0 ** rng.uniform(0.0, 300.0),
                 1.0 + 10.0 ** rng.uniform(-16.0, 0.0)])
            c = rng.choice(
                [rng.choice(cs), math.exp(rng.uniform(0.0, 709.7)),
                 1.0 + rng.randint(1, 64) * 2.0**-52])
            pairs.append((alpha, c))
        for alpha, c in pairs:
            report = bound_report(alpha, c)
            assert 1.0 <= report.gamma <= 1.0 + (c - 1.0) / alpha, (alpha, c)
            assert math.isfinite(report.brute), alpha

    @staticmethod
    def _reference_bisection(alpha, c, tol):
        # the bisection as first written, calling kl_divergence per midpoint
        a = 1.0 / alpha
        target = math.log(c) / alpha
        lo, hi = 1.0, 1.0 + (c - 1.0) / alpha
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if kl_divergence(a, (mid - 1.0) / (c - 1.0)) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("seed", ["1e-12", "1e-06"])
    def test_inlined_divergence_is_bit_identical(self, seed):
        # two seeded draws of a 60 x 60 grid drawn like the benchmark's
        # bounds ops (alpha in [1, 4] to 4 decimals, c in [1.01, 1024] to 5
        # digits), plus random pairs that include alpha == 1 and very large c
        rng = random.Random(f"bisection:{seed}")
        alphas = [float(f"{rng.uniform(1.0, 4.0):.4f}") for _ in range(60)]
        cs = [float(f"{rng.uniform(1.01, 1024.0):.5g}") for _ in range(60)]
        pairs = [(alpha, c) for alpha in alphas for c in cs]
        for _ in range(1000):
            alpha = rng.choice([1.0, rng.uniform(1.0, 4.0), math.exp(rng.uniform(0.0, 20.0))])
            c = rng.choice([rng.uniform(1.01, 1024.0), math.exp(rng.uniform(0.1, 700.0))])
            pairs.append((alpha, c))
        for alpha, c in pairs:
            assert amls_bound(alpha, c) == self._reference_bisection(alpha, c, 1e-12), (
                alpha, c)

    def test_certificate_corners_are_bit_identical(self):
        # the corners of the certified interval: c = 1 + j*2^-52, where it
        # must fall back to the whole bracket (or the bracket is below TOL);
        # alpha at and just above 1, and up to e^20; c near 1 and up to 1e300
        rng = random.Random("certificate corners")
        alphas = [1.0, 1.0 + 2.0**-52] + [1.0 + 10.0**-u for u in range(1, 16)]
        alphas += [float(f"{rng.uniform(1.0, 4.0):.4f}") for _ in range(120)]
        alphas += [math.exp(rng.uniform(0.0, 20.0)) for _ in range(20)]
        cs = [1.0 + j * 2.0**-52 for j in range(1, 9)]
        cs += [1.0 + 10.0**-u for u in (3, 6, 9, 12)] + [1e10, 1e30, 1e100, 1e200, 1e300]
        cs += [float(f"{rng.uniform(1.01, 1024.0):.5g}") for _ in range(120)]
        pairs = [(alpha, c) for alpha in alphas for c in cs]
        assert len(pairs) >= 20_000
        for alpha, c in pairs:
            assert amls_bound(alpha, c) == self._reference_bisection(alpha, c, 1e-12), (
                alpha, c)

    @staticmethod
    def _interval(alpha, c):
        a = 1.0 / alpha
        hi = 1.0 + (c - 1.0) / alpha
        return _certified_interval(a, 1.0 - a, c - 1.0, math.log(c) / alpha, hi), hi

    def test_certificate_skips_all_but_the_root(self):
        # on the benchmark's grid the interval is certified and narrow;
        # below the margin it is the whole bracket
        rng = random.Random("certificate")
        for _ in range(200):
            alpha = float(f"{rng.uniform(1.0, 4.0):.4f}")
            c = float(f"{rng.uniform(1.01, 1024.0):.5g}")
            (low, high), hi = self._interval(alpha, c)
            assert 1.0 < low < self._reference_bisection(alpha, c, 1e-15) < high < hi
            assert high - low < 1e-9
        for alpha in (1.0, 1.0 + 2.0**-52, 1.5, 3.0):
            for j in range(1, 5):
                (low, high), hi = self._interval(alpha, 1.0 + j * 2.0**-52)
                assert (low, high) == (1.0, hi)


class TestBenchmarks:
    def test_brute_values(self):
        assert brute_bound(1) == 2.0
        assert brute_bound(2) == 1.25
        assert brute_bound(1.1) == pytest.approx(1.716, abs=1e-3)

    def test_brute_matches_entropy_form(self):
        for alpha in ALPHA_GRID:
            expected = 1 + math.exp(-alpha * entropy(1 / alpha))
            assert brute_bound(alpha) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("alpha", [144.0, 1e3, 1e16])
    def test_brute_is_finite_where_the_ratio_overflows(self, alpha):
        value = brute_bound(alpha)
        assert math.isfinite(value)
        assert value == 1 + math.exp(-alpha * entropy(1 / alpha))

    def test_naive_values(self):
        assert naive_bound(1, 1.5) == 1.5
        assert naive_bound(1.1, 1.1652) == pytest.approx(1.149, abs=1e-3)
        assert naive_bound(1.1, 1.1652) > amls_bound(1.1, 1.1652)

    def test_emls_values(self):
        assert emls_bound(1) == 1.0
        assert emls_bound(1024) == pytest.approx(1.9990, abs=2e-4)
        assert emls_bound(1.1652) == pytest.approx(1.1417, abs=1e-3)

    @pytest.mark.parametrize(
        "call",
        [lambda: brute_bound(0.5), lambda: naive_bound(0.5, 2), lambda: emls_bound(0.5)],
    )
    def test_domain_errors(self, call):
        with pytest.raises(ValueError):
            call()


class TestBoundReport:
    def test_dfvs_style_pair(self):
        report = bound_report(2, 1024)
        assert report.gamma == pytest.approx(1.2498, abs=1e-3)
        assert report.brute == 1.25
        assert report.dominant_benchmark == "brute"

    def test_alpha_one_collapse(self):
        report = bound_report(1, 2)
        assert report.gamma == pytest.approx(1.5, abs=1e-9)
        assert report.gamma == pytest.approx(report.emls, abs=1e-9)

    def test_vc_style_pair(self):
        report = bound_report(1.1, 1.1652)
        assert report.gamma == pytest.approx(1.114, abs=1e-3)
        assert report.naive == pytest.approx(1.149, abs=1e-3)
        assert report.brute == pytest.approx(1.716, abs=1e-3)

    def test_invariants_on_grid(self):
        for alpha in (1.0, 1.4, 2.2):
            for c in (1.0, 1.3, 8.0):
                r = bound_report(alpha, c)
                assert 1.0 <= r.gamma <= 1.0 + (c - 1.0) / alpha
                assert (r.gamma == 1.0) == (c == 1.0)
                assert r.gamma <= min(r.brute, r.naive) + 1e-12
                assert r.gamma <= r.emls + 1e-12
                assert 0.0 <= r.delta_star <= 1.0 / alpha

    def test_delta_star_degenerate(self):
        assert bound_report(2, 1).delta_star == 0.5


class TestQueryAndReportTypes:
    def test_keyword_construction_and_value_equality(self):
        report = bound_report(alpha=2, c=1024)
        assert report == bound_report(2, 1024)
        assert (report.alpha, report.c) == (2, 1024)
        assert list(report._asdict()) == [
            "alpha", "c", "gamma", "delta_star", "brute", "naive", "emls", "dominant_benchmark"]
        assert BoundReport(**report._asdict()) == report

    @pytest.mark.parametrize("value", [bound_table([2], [1024])[0], bound_report(2, 1024)])
    def test_immutable(self, value):
        with pytest.raises(AttributeError):
            value.alpha = 3.0
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize(
        "args,message",
        [
            ((0.9, 2.0), "alpha must be finite and >= 1, got 0.9"),
            ((math.inf, 2.0), "alpha must be finite and >= 1, got inf"),
            ((1.5, 0.5), "c must be finite and >= 1, got 0.5"),
            ((1.5, math.nan), "c must be finite and >= 1, got nan"),
        ],
    )
    def test_invalid_arguments_keep_their_messages(self, args, message):
        for build in (amls_bound, bound_report):
            with pytest.raises(ValueError) as info:
                build(*args)
            assert str(info.value) == message


class TestTable:
    def test_cartesian_product(self):
        reports = bound_table([1.0, 2.0], [2.0, 4.0, 8.0])
        assert [(r.alpha, r.c) for r in reports] == [
            (1.0, 2.0), (1.0, 4.0), (1.0, 8.0), (2.0, 2.0), (2.0, 4.0), (2.0, 8.0),
        ]

    def test_single_pair(self):
        (report,) = bound_table([1.0], [2.0])
        assert report.gamma == pytest.approx(1.5, abs=1e-9)

    def test_empty(self):
        assert bound_table([], [2.0]) == []
        assert bound_table([1.5], []) == []

    def test_csv_schema(self):
        assert CSV_HEADER == "alpha,c,amls,brute,naive,emls,dominant"
        rows = format_csv_rows(bound_table([1.1], [1.1652]))
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert len(fields) == 7
        assert fields[0] == "1.1"
        assert float(fields[2]) == pytest.approx(1.114, abs=1e-3)
        assert fields[6] in ("brute", "naive", "emls")
        # six significant digits
        assert fields[2] == f"{amls_bound(1.1, 1.1652):.6g}"
