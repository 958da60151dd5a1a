"""Exact combinatorics against enumeration oracles.

The hypergeometric oracle below counts intersections over all C(n, t)
subsets with itertools, independently of the implementations under test.
hyper_tail and iteration_cost are the math.comb references of
tests/reference.py, which select_t is checked against.
"""

import hashlib
import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

import amls
from amls.bounds import brute_bound
from amls.combinatorics import _cost_less, _pascal_row, argmin_t, kappa, select_t
from reference import (
    decimal_ratio,
    empirical_brute_exponent,
    hyper_tail,
    iteration_cost,
    relaxed_log_cost,
)


def hyper_distribution(n, k, t):
    """Exact distribution of |X cap [k]| over all t-subsets X, by enumeration."""
    target = set(range(k))
    counts = {}
    for combo in combinations(range(n), t):
        hits = len(target.intersection(combo))
        counts[hits] = counts.get(hits, 0) + 1
    total = math.comb(n, t)
    return {hits: Fraction(c, total) for hits, c in counts.items()}


class TestExactRatio:
    """alpha's exact ratio, the int pair of amls._ratio, in the cost model."""

    def test_decimal_intent(self):
        assert amls._ratio(1.7) == (17, 10)
        assert amls._ratio(1.1652) == (2913, 2500)
        assert amls._ratio(2) == (2, 1)
        assert amls._ratio(Fraction(3, 2)) == (3, 2)

    def test_threshold_sanity(self):
        # floor(alpha*k) and ceil(t/alpha) follow the decimal reading where
        # float arithmetic is an ulp off: 1.16 * 25 gives 28.999999999999996
        # and 21 / 1.4 gives 15.000000000000002
        assert iteration_cost(30, 25, 29, 1.16, 2).t == 29
        with pytest.raises(ValueError, match="t=30 outside"):
            iteration_cost(30, 25, 30, 1.16, 2)
        assert iteration_cost(30, 15, 21, 1.4, 2).p == hyper_tail(30, 15, 21, 15)


def _ratio_corpus() -> list:
    """Seeded floats: the benchmark's alpha and boost values, bounds-grid-like
    alphas, 1e-300 to 1e300 of either sign, subnormals and whole floats."""
    rng = random.Random(27)
    xs = [1.0, 1.5, 2.0, 3.0, 9.0, 1.1, 1.1652, 1.7, 4 / 3, 0.0, -0.0]
    xs += [float(f"{rng.uniform(1.0, 4.0):.4f}") for _ in range(300)]
    xs += [rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 299) for _ in range(1000)]
    xs += [-rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 299) for _ in range(200)]
    xs += [rng.randint(1, 2**52) * 5e-324 for _ in range(300)]  # subnormals
    xs += [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    xs += [float(rng.randint(1, 2**70)) for _ in range(300)]  # whole floats
    xs += [1e15, 1e16, 1e22, 1e23, 123.0, 2.0**53, 2.0**53 + 2]
    return xs


class TestRatio:
    """amls._ratio, the one decimal reading behind the cost model and the
    engine's plan, against the Decimal definition it replaced."""

    def test_matches_the_decimal_reading(self):
        for x in _ratio_corpus():
            ref = decimal_ratio(x)
            assert amls._ratio(x) == (ref.numerator, ref.denominator), x

    def test_ints_and_fractions_give_their_own_ratio(self):
        assert amls._ratio(7) == (7, 1)
        assert amls._ratio(0) == (0, 1)
        assert amls._ratio(Fraction(6, 4)) == (3, 2)
        assert amls._ratio(Fraction(-5, 3)) == (-5, 3)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_raises(self, x):
        with pytest.raises(ValueError, match="finite"):
            amls._ratio(x)


class TestHyperTail:
    def test_whole_space(self):
        for n, k, t in [(6, 3, 2), (9, 0, 4), (5, 5, 5)]:
            assert hyper_tail(n, k, t, 0) == 1

    def test_whole_support_reads_no_pascal_row(self):
        # a matching solve plans t = 0, p = 1 at every k; building rows there
        # costs time and memory for nothing
        _pascal_row.cache_clear()
        for k in range(101):
            cost = select_t(200, k, 2.0, 1.0)
            assert (cost.t, cost.p, cost.repetitions) == (0, 1, 1)
        assert _pascal_row.cache_info().currsize == 0

    def test_examples(self):
        assert hyper_tail(4, 2, 2, 1) == Fraction(5, 6)
        assert hyper_tail(5, 2, 2, 2) == Fraction(1, 10)

    def test_above_support_is_zero(self):
        assert hyper_tail(6, 2, 3, 3) == 0
        assert hyper_tail(6, 2, 3, 4) == 0

    def test_matches_enumeration_up_to_n_10(self):
        for n in range(11):
            for k in range(n + 1):
                for t in range(n + 1):
                    dist = hyper_distribution(n, k, t)
                    for x in range(n + 2):
                        expected = sum(p for h, p in dist.items() if h >= x)
                        assert hyper_tail(n, k, t, x) == expected

    def test_monotone_in_threshold_and_complement(self):
        for n, k, t in [(10, 4, 5), (12, 6, 6), (8, 8, 3)]:
            tails = [hyper_tail(n, k, t, x) for x in range(min(k, t) + 2)]
            assert all(a >= b for a, b in zip(tails, tails[1:]))
            dist = hyper_distribution(n, k, t)
            for x in range(min(k, t) + 1):
                below = sum(p for h, p in dist.items() if h <= x - 1)
                assert hyper_tail(n, k, t, x) + below == 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyper_tail(4, 5, 2, 0)
        with pytest.raises(ValueError):
            hyper_tail(4, 2, 5, 0)
        with pytest.raises(ValueError):
            hyper_tail(4, 2, 2, -1)


class TestHyperSymmetry:
    """The tail is unchanged by swapping the roles of k and t: the two ways
    of conditioning the same bivariate event."""

    def test_examples(self):
        assert hyper_tail(4, 2, 2, 1) == Fraction(5, 6)
        assert hyper_tail(6, 3, 3, 3) == Fraction(1, 20)
        assert hyper_tail(10, 4, 6, 2) == hyper_tail(10, 6, 4, 2)

    def test_all_small_parameters(self):
        for n in range(1, 13):
            for k in range(n + 1):
                for t in range(n + 1):
                    for x in range(min(k, t) + 1):
                        assert hyper_tail(n, k, t, x) == hyper_tail(n, t, k, x)


class TestIterationCost:
    def test_empty_sample(self):
        cost = iteration_cost(4, 1, 0, 1, 2)
        assert cost.p == 1
        assert cost.repetitions == 1
        assert cost.log_cost == pytest.approx(math.log(2), abs=1e-12)

    def test_singleton_sample(self):
        cost = iteration_cost(4, 1, 1, 1, 2)
        assert cost.p == Fraction(1, 4)
        assert cost.repetitions == 4
        assert cost.log_cost == pytest.approx(math.log(4), abs=1e-12)

    def test_fractional_ratio(self):
        cost = iteration_cost(6, 2, 2, 2, 4)
        assert cost.p == Fraction(3, 5)
        assert cost.log_cost == pytest.approx(
            math.log(4) - math.log(Fraction(3, 5)), abs=1e-12
        )

    def test_tiny_tail_does_not_underflow(self):
        cost = iteration_cost(60, 30, 30, 1, 2)
        assert cost.p == Fraction(1, math.comb(60, 30))
        assert cost.repetitions == math.comb(60, 30)
        assert cost.log_cost == pytest.approx(math.log(math.comb(60, 30)), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            iteration_cost(4, 3, 0, 2, 2)  # k > n/alpha
        with pytest.raises(ValueError):
            iteration_cost(4, 1, 2, 1, 2)  # t > alpha*k


class TestSelectT:
    def test_nothing_to_find(self):
        cost = select_t(9, 0, 1.5, 3)
        assert cost.t == 0
        assert cost.repetitions == 1

    def test_small_instance(self):
        cost = select_t(4, 1, 1, 2)
        assert cost.t == 0
        assert cost.log_cost == pytest.approx(math.log(2), abs=1e-12)

    def test_free_extension_prefers_empty_sample(self):
        for n, k, alpha in [(10, 3, 1), (12, 4, 2), (9, 2, 1.5)]:
            assert select_t(n, k, alpha, 1).t == 0

    @pytest.mark.parametrize(
        "n,k,alpha,c",
        [(12, 5, 1.0, 2.0), (20, 8, 1.0, 2.0), (18, 6, 1.5, 2.0),
         (30, 10, 2.0, 4.0), (30, 15, 1.0, 3.0), (25, 12, 1.4, 1.1652),
         # exact ties for the audit to settle (at alpha = 1 and integer c,
         # t = (ck - n)/(c - 1) ties t + 1)
         (20, 12, 1.0, 2.0), (30, 16, 1.0, 3.0), (25, 10, 1.0, 4.0), (14, 13, 1.0, 1.5),
         (28, 13, 1.5, 1.5), (18, 5, 2.0, 3.0), (26, 7, 2.0, 4.0), (26, 6, 3.0, 1.5)],
    )
    def test_is_argmin_exhaustively(self, n, k, alpha, c):
        chosen = select_t(n, k, alpha, c)
        a = decimal_ratio(alpha)
        costs = [
            iteration_cost(n, k, t, alpha, c)
            for t in range(min(math.floor(a * k), n) + 1)
        ]
        exact = lambda ic: (1 / ic.p) ** a.numerator * decimal_ratio(c) ** (
            -ic.t * a.denominator
        )
        best = min(costs, key=lambda ic: (exact(ic), ic.t))
        assert chosen.t == best.t

    def test_ties_break_to_smaller_t(self):
        # c = 1 gives exact cost 1/p for every t; t=0 has p=1 like nothing else
        cost = select_t(8, 3, 1, 1)
        assert cost.t == 0


# 4/3 reads as 13333333333333333 / 10**16: an audit that raised the
# costs to a.numerator did not return for it.  At n = 4, k = 1 the costs of
# t = 0 and t = 1 are c and 4 * c**(1 - 1/alpha), so c = 4**(4/3) makes them
# tie to float precision and sends both argmins into the audit.
FLOAT_ALPHA_AUDITS = """
from fractions import Fraction
import amls
from amls.combinatorics import _cost_less, argmin_t, kappa, select_t

def family_t(n, k, a, c):
    return argmin_t(n, k, a, c, lambda t, r: kappa(n, k, t, r).as_integer_ratio())[0]

a = Fraction(*amls._ratio(4 / 3))
# 4/a exceeds 3 by about 7.5e-17, so 8 * 2**(-4/a) is just below 1
assert _cost_less(Fraction(2), a, 4, Fraction(8), 0, Fraction(1))
assert not _cost_less(Fraction(2), a, 0, Fraction(1), 4, Fraction(8))
assert select_t(4, 1, 4 / 3, 4 ** (4 / 3)).t in (0, 1)
assert family_t(4, 1, a, 4 ** (4 / 3)) in (0, 1)
for k in range(16):
    select_t(20, k, 4 / 3, 2)
for c in (2.0, 3.0):
    for k in range(11):
        family_t(14, k, a, c)
print("done")
"""


def _cap_address_space():
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class TestTieAudit:
    def test_exact_tie_is_not_less(self):
        # 2 * 2**-1 == 1 * 2**0, either way round
        assert not _cost_less(Fraction(2), Fraction(1), 1, Fraction(2), 0, Fraction(1))
        assert not _cost_less(Fraction(2), Fraction(1), 0, Fraction(1), 1, Fraction(2))
        # 81 * 9**(-3/(3/2)) == 1 * 9**0
        a = Fraction(3, 2)
        assert not _cost_less(Fraction(9), a, 3, Fraction(81), 0, Fraction(1))
        # the same costs as c**300 and 300 * a go through the 60-digit logs,
        # not the exact powers, and agree on these ties of select_t
        for c, a, t1, f1, t2, f2 in [
            (2, 1, 1, 2, 0, 1), (9, Fraction(3, 2), 3, 81, 0, 1),
            (Fraction(3, 2), Fraction(3, 2), 3, Fraction(9, 4), 0, 1),
            (3, 2, 10, 34, 8, Fraction(34, 3)), (4, 2, 14, Fraction(575, 3), 12, Fraction(575, 12)),
        ]:
            c, a, f1, f2 = Fraction(c), Fraction(a), Fraction(f1), Fraction(f2)
            for args in ((c, a, t1, f1, t2, f2), (c, a, t2, f2, t1, f1)):
                assert not _cost_less(*args)
                assert not _cost_less(c**300, 300 * a, *args[2:])

    def test_tiny_margin_is_decided(self):
        near_one = 1 + Fraction(1, 10**30)
        assert _cost_less(Fraction(2), Fraction(1), 0, Fraction(1), 0, near_one)
        assert not _cost_less(Fraction(2), Fraction(1), 0, near_one, 0, Fraction(1))

    def test_float_alpha_audits_return(self):
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(amls.__file__)))
        pythonpath = os.pathsep.join(
            p for p in (package_root, os.environ.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", FLOAT_ALPHA_AUDITS],
            capture_output=True, text=True, timeout=20,
            env=dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=_cap_address_space,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["done"]


# The cost model's floats, pinned: select_t's (t, log_cost.hex(), p,
# repetitions) and the family argmin's t over a grid, as the Fraction
# arithmetic of the model first gave them.  c = 4**(4/3) and 4**1.37 put near
# ties at n = 4, k = 1 for alpha = 4/3 and alpha = 1.37, whose denominators
# exceed 64, so the 60-digit audit settles them.
DIGEST_ALPHAS = (1, 1.1, 1.1652, 4 / 3, 1.37, 1.5, 2, 3)
DIGEST_CS = (1, 1.1652, 2, 7.3, 1024, 4 ** (4 / 3), 4 ** 1.37)
DIGEST_NS = (0, 2, 4, 6, 8, 10, 12, 14, 25)
COST_MODEL_DIGEST = "3941df4282d87e432e6d557e87a672bbaf7548f7f5df094870d4cefa91ccdd0b"


class TestCostModelDigest:
    def test_grid_is_pinned(self):
        h = hashlib.sha256()
        for alpha in DIGEST_ALPHAS:
            a = decimal_ratio(alpha)
            for c in DIGEST_CS:
                for n in DIGEST_NS:
                    for k in range(math.floor(n / a) + 1):
                        cost = select_t(n, k, alpha, c)
                        t = argmin_t(
                            n, k, alpha, c, lambda t, r: kappa(n, k, t, r).as_integer_ratio()
                        )[0]
                        h.update(
                            f"{n} {k} {alpha!r} {c!r} {cost.t} {cost.log_cost.hex()} "
                            f"{cost.p} {cost.repetitions} {t}\n".encode()
                        )
        assert h.hexdigest() == COST_MODEL_DIGEST


def reference_select_t(n, k, alpha, c):
    # the sampling argmin as written before argmin_t served both modes
    a, c = decimal_ratio(alpha), float(c)
    best = iteration_cost(n, k, 0, alpha, c)
    c_exact = decimal_ratio(c) if c != 1.0 else Fraction(1)
    for t in range(1, min(math.floor(a * k), n) + 1):
        cand = iteration_cost(n, k, t, alpha, c)
        diff = cand.log_cost - best.log_cost
        if diff < -1e-12:
            best = cand
        elif diff <= 1e-12:
            if _cost_less(c_exact, a, cand.t, 1 / cand.p, best.t, 1 / best.p):
                best = cand
    return best


def reference_select_t_deterministic(n, k, alpha, c):
    # the family argmin as written before argmin_t served both modes
    c_exact = decimal_ratio(c) if c != 1.0 else Fraction(1)
    log_c = math.log(c)
    best_t, best_r = 0, 0
    best_factor = Fraction(1)
    best_log = k * log_c
    for t in range(1, min(math.floor(alpha * k), n) + 1):
        r = math.ceil(Fraction(t) / alpha)
        factor = kappa(n, k, t, r)
        log_cost = (
            math.log(factor.numerator) - math.log(factor.denominator)
            + float(k - Fraction(t) / alpha) * log_c
        )
        diff = log_cost - best_log
        if diff < -1e-12 or (
            diff <= 1e-12
            and _cost_less(c_exact, alpha, t, factor, best_t, best_factor)
        ):
            best_t, best_r, best_factor, best_log = t, r, factor, log_cost
    return best_t, best_r


FOLD_ALPHAS = [1, 1.1, 4 / 3, 1.5, 2, 3]
FOLD_CS = (1, 1.1652, 2, 3, 1024)
FOLD_NS = (8, 14, 20, 50)


class TestArgminFold:
    @pytest.mark.parametrize("alpha", FOLD_ALPHAS)
    def test_sampling_matches_reference(self, alpha):
        a = decimal_ratio(alpha)
        for c in FOLD_CS:
            for n in FOLD_NS:
                for k in range(math.floor(n / a) + 1):
                    got = select_t(n, k, alpha, c)
                    want = reference_select_t(n, k, alpha, c)
                    assert (got.t, got.p) == (want.t, want.p), (n, k, c)
                    assert got.log_cost.hex() == want.log_cost.hex(), (n, k, c)

    def test_sampling_matches_reference_at_matching_shape(self):
        # n = 200, alpha = 2, c = 1: the shape of a matching-oracle solve
        for k in range(101):
            got = select_t(200, k, 2.0, 1.0)
            want = reference_select_t(200, k, 2.0, 1.0)
            assert (got.t, got.p) == (want.t, want.p), k
            assert got.log_cost.hex() == want.log_cost.hex(), k

    @pytest.mark.parametrize("alpha", FOLD_ALPHAS)
    def test_family_matches_reference(self, alpha):
        a = decimal_ratio(alpha)
        for c in FOLD_CS:
            for n in FOLD_NS:
                for k in range(math.floor(n / a) + 1):
                    t = argmin_t(
                        n, k, a, c, lambda t, r: kappa(n, k, t, r).as_integer_ratio()
                    )[0]
                    want = reference_select_t_deterministic(n, k, a, c)
                    assert (t, math.ceil(t / a)) == want, (n, k, c)

    def test_pascal_rows_match_comb(self):
        for m in range(201):
            assert list(_pascal_row(m)) == [math.comb(m, j) for j in range(m + 1)], m


SHORT_CIRCUIT_NS = (8, 50, 200)
SHORT_CIRCUIT_ALPHAS = [1, 4 / 3, 2, 3]


class TestPolynomialOracleShortCircuit:
    """At c = 1 every t costs factor(t) >= 1 = factor(0), so t = 0."""

    @pytest.mark.parametrize("alpha", SHORT_CIRCUIT_ALPHAS)
    def test_argmin_t_does_not_call_factor(self, alpha):
        def factor(t, r):
            raise AssertionError(f"factor({t}, {r}) called at c = 1")

        a = decimal_ratio(alpha)
        for n in SHORT_CIRCUIT_NS:
            for k in range(math.floor(n / a) + 1):
                assert argmin_t(n, k, alpha, 1, factor) == (0, (1, 1)), (n, k)

    @pytest.mark.parametrize("alpha", SHORT_CIRCUIT_ALPHAS)
    def test_select_t_matches_reference(self, alpha):
        a = decimal_ratio(alpha)
        for n in SHORT_CIRCUIT_NS:
            for k in range(math.floor(n / a) + 1):
                got = select_t(n, k, alpha, 1)
                want = reference_select_t(n, k, alpha, 1)
                assert (got.t, got.p, got.repetitions) == (
                    want.t, want.p, want.repetitions
                ), (n, k)
                assert got.log_cost.hex() == want.log_cost.hex(), (n, k)

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            argmin_t(10, 11, 1, 1, lambda t, r: (1, 1))
        with pytest.raises(ValueError):
            argmin_t(10, 3, 0.5, 1, lambda t, r: (1, 1))


class TestRelaxedLogCost:
    def test_forms_agree_at_zero_sample(self):
        # t = 0, alpha = 1: both reduce to k ln c - n H(k/n)
        from amls.bounds import entropy

        for n, k, c in [(50, 10, 2.0), (40, 0, 3.0), (30, 15, 1.5)]:
            expected = k * math.log(c) - n * entropy(k / n)
            assert relaxed_log_cost(n, k, 0, 1, c, "entropy") == pytest.approx(
                expected, abs=1e-9
            )
            assert relaxed_log_cost(n, k, 0, 1, c, "kl") == pytest.approx(
                expected, abs=1e-9
            )

    def test_forms_agree_on_given_points(self):
        points = [(100, 20, 10, 2, 4), (50, 10, 20, 2, 2)]
        # and a grid: every third t, every fifth feasible k from k's lower edge
        for n in (20, 50, 90):
            for alpha in (1.0, 1.5, 2.0):
                a = decimal_ratio(alpha)
                for t in range(0, n - 1, 3):
                    k_lo = math.ceil(Fraction(t) / a)
                    k_hi = min(n, math.floor(n - t + Fraction(t) / a))
                    points += [(n, k, t, alpha, c)
                               for k in range(k_lo, k_hi + 1, 5) for c in (1.3, 4.0)]
        assert len(points) == 2 + 2484
        for n, k, t, alpha, c in points:
            e = relaxed_log_cost(n, k, t, alpha, c, "entropy")
            kl = relaxed_log_cost(n, k, t, alpha, c, "kl")
            assert e == pytest.approx(kl, abs=1e-9), (n, k, t, alpha, c)

    def test_forms_agree_on_random_tuples(self):
        rng = random.Random(2024)
        cases = 0
        while cases < 1000:
            n = rng.randrange(3, 200)
            t = rng.randrange(0, n)
            alpha = rng.choice([1, 1.1, 1.5, 2, 2.5, 3])
            a = decimal_ratio(alpha)
            k_lo = math.ceil(Fraction(t) / a)
            k_hi = min(n, math.floor(Fraction(n) - t + Fraction(t) / a))
            if k_lo > k_hi:
                continue
            k = rng.randrange(k_lo, k_hi + 1)
            c = rng.uniform(1.01, 10)
            e = relaxed_log_cost(n, k, t, alpha, c, "entropy")
            kl = relaxed_log_cost(n, k, t, alpha, c, "kl")
            assert e == pytest.approx(kl, abs=1e-9), (n, k, t, alpha, c)
            cases += 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            relaxed_log_cost(10, 7, 8, 2, 2)  # density (7-4)/2 above 1
        with pytest.raises(ValueError):
            relaxed_log_cost(10, 1, 4, 2, 2)  # density (1-2)/6 below 0
        with pytest.raises(ValueError):
            relaxed_log_cost(10, 2, 10, 1, 2)  # t = n
        with pytest.raises(ValueError):
            relaxed_log_cost(10, 3, 2, 1, 2, form="banana")


class TestEmpiricalBruteExponent:
    def test_alpha_one_approaches_ln2(self):
        assert abs(empirical_brute_exponent(200, 1) - math.log(2)) <= 0.03

    @pytest.mark.parametrize("alpha", [1.5, 2])
    def test_matches_analytic_base(self, alpha):
        got = empirical_brute_exponent(400, alpha)
        assert abs(got - math.log(brute_bound(alpha))) <= 0.02

    def test_domain_error(self):
        with pytest.raises(ValueError):
            empirical_brute_exponent(1, 1.5)


class TestKappa:
    def test_examples(self):
        assert kappa(4, 2, 2, 1) == Fraction(3, 2)
        assert kappa(6, 4, 2, 2) == Fraction(15, 6)
        assert kappa(5, 2, 2, 2) == 10

    def test_single_term_tail_identity(self):
        assert kappa(5, 2, 2, 2) == 1 / hyper_tail(5, 2, 2, 2)
        assert kappa(7, 3, 3, 3) == 1 / hyper_tail(7, 3, 3, 3)

    def test_point_probability_reciprocal(self):
        # 1/kappa equals the enumerated probability of hitting exactly r
        for n, p, q, r in [(8, 3, 4, 2), (9, 4, 3, 1), (10, 5, 5, 3)]:
            target = set(range(p))
            hits = sum(
                1
                for combo in combinations(range(n), q)
                if len(target.intersection(combo)) == r
            )
            assert 1 / kappa(n, p, q, r) == Fraction(hits, math.comb(n, q))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kappa(4, 5, 2, 1)
        with pytest.raises(ValueError):
            kappa(4, 2, 0, 1)
        with pytest.raises(ValueError):
            kappa(6, 3, 5, 1)  # q > n - p + r
