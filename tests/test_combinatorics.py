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
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

import amls
from amls.bounds import brute_bound
from amls.combinatorics import _cost_less, _favourable, _pascal_row, argmin_t, kappa, select_t
from amls.engine import _plan
from amls.problems import Graph, vc_exact_oracle
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
    return argmin_t(n, k, a, c, lambda t, r: kappa(n, k, t, r))[0]

a_pair = amls._ratio(4 / 3)
a = Fraction(*a_pair)
# 4/a exceeds 3 by about 7.5e-17, so 8 * 2**(-4/a) is just below 1
assert _cost_less((2, 1), a_pair, 4, (8, 1), 0, (1, 1))
assert not _cost_less((2, 1), a_pair, 0, (1, 1), 4, (8, 1))
assert select_t(4, 1, 4 / 3, 4 ** (4 / 3)).t in (0, 1)
assert family_t(4, 1, a, 4 ** (4 / 3)) in (0, 1)
for k in range(16):
    select_t(20, k, 4 / 3, 2)
for c in (2.0, 3.0):
    for k in range(11):
        family_t(14, k, a, c)
print("done")
"""


# One argmin_t with select_t's factor, whose audit _cost_less counts; prints
# the result, the number of audits, then which of fractions and decimal the
# call loaded.  At (10, 6), alpha = 1, c = 2, t = 3 ties t = 2 on the exact
# branch; at (4, 1), alpha = 4/3, c = 4**(4/3) (see FLOAT_ALPHA_AUDITS) the
# tie takes the 60-digit branch.
AUDIT_IMPORTS = """
import sys
from amls import combinatorics
before = set(sys.modules)
audit, audits = combinatorics._cost_less, []
combinatorics._cost_less = lambda *args: audits.append(args) or audit(*args)
n, k, alpha, c = {n}, {k}, {alpha}, {c}
factor = lambda t, r: (combinatorics._pascal_row(n)[t], combinatorics._favourable(n, k, t, r))
print(combinatorics.argmin_t(n, k, alpha, c, factor), len(audits))
print(*sorted({{"fractions", "decimal"}} & (set(sys.modules) - before)))
"""


LAZY_P = """
import sys
from amls.combinatorics import select_t
cost = select_t(10, 6, 1, 2.0)
print("fractions" in sys.modules, cost.repetitions, "fractions" in sys.modules)
print(cost.p, "fractions" in sys.modules)
"""


def _run_child(code, *flags):
    """Runs code in a fresh interpreter (with flags) that imports this amls."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(amls.__file__)))
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=_cap_address_space,
    )


def _cap_address_space():
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


# Exact ties of select_t as _cost_less's int pairs (c, a, t1, f1, t2, f2):
# f1 * c**(-t1/a) == f2 * c**(-t2/a).
AUDIT_TIES = [
    ((2, 1), (1, 1), 1, (2, 1), 0, (1, 1)),
    ((9, 1), (3, 2), 3, (81, 1), 0, (1, 1)),
    ((3, 2), (3, 2), 3, (9, 4), 0, (1, 1)),
    ((3, 1), (2, 1), 10, (34, 1), 8, (34, 3)),
    ((4, 1), (2, 1), 14, (575, 3), 12, (575, 12)),
]
NEAR_ONE = (10**30 + 1, 10**30)


def _swapped(case):
    c, a, t1, f1, t2, f2 = case
    return c, a, t2, f2, t1, f1


def _scaled(case, g=6):
    # every pair times g: both sides of the comparison times one power of g
    c, a, t1, f1, t2, f2 = case
    (p, q), (num_a, den_a), (n1, d1), (n2, d2) = c, a, f1, f2
    return (g * p, g * q), (g * num_a, g * den_a), t1, (g * n1, g * d1), t2, (g * n2, g * d2)


def _as_300th_power(case):
    # c**300 and 300 * a: the same costs, past the exact branch's A < 256
    (p, q), (num_a, den_a), *rest = case
    return ((p**300, q**300), (300 * num_a, den_a), *rest)


# (case, whether f1's side is less): the ties either way round, and strict
# inequalities either way round
SCALING_CASES = [(case, False) for tie in AUDIT_TIES for case in (tie, _swapped(tie))] + [
    (((2, 1), (1, 1), 0, (1, 1), 0, NEAR_ONE), True),
    (((2, 1), (1, 1), 0, NEAR_ONE, 0, (1, 1)), False),
    (((2, 1), (1, 1), 1, (3, 2), 0, (1, 1)), True),
    (((2, 1), (1, 1), 0, (1, 1), 1, (3, 2)), False),
]


class TestTieAudit:
    def test_exact_tie_is_not_less(self):
        # 2 * 2**-1 == 1 * 2**0, either way round
        assert not _cost_less((2, 1), (1, 1), 1, (2, 1), 0, (1, 1))
        assert not _cost_less((2, 1), (1, 1), 0, (1, 1), 1, (2, 1))
        # 81 * 9**(-3/(3/2)) == 1 * 9**0
        assert not _cost_less((9, 1), (3, 2), 3, (81, 1), 0, (1, 1))
        # the same costs as c**300 and 300 * a go through the 60-digit logs,
        # not the exact powers, and agree on these ties of select_t
        for tie in AUDIT_TIES:
            for case in (tie, _swapped(tie)):
                assert not _cost_less(*case)
                assert not _cost_less(*_as_300th_power(case))

    def test_tiny_margin_is_decided(self):
        assert _cost_less((2, 1), (1, 1), 0, (1, 1), 0, NEAR_ONE)
        assert not _cost_less((2, 1), (1, 1), 0, NEAR_ONE, 0, (1, 1))

    @pytest.mark.parametrize("case,less", SCALING_CASES)
    def test_scaled_pairs_give_the_reduced_answer(self, case, less):
        # on the exact branch and through the 60-digit logarithms alike
        _, (num_a, den_a), t1, _, t2, _ = _scaled(case)
        assert num_a < 256 and abs(t1 - t2) * den_a <= 64  # the exact branch
        assert _cost_less(*case) is less
        assert _cost_less(*_scaled(case)) is less
        assert _cost_less(*_as_300th_power(case)) is less
        assert _cost_less(*_scaled(_as_300th_power(case))) is less

    def test_argmin_keeps_the_unreduced_pair(self):
        # at n = 10, k = 6, alpha = 1, c = 2, t = 2 and t = 3 both cost 48;
        # the audit keeps t = 2 with select_t's pair (C(10, 2), count) as is
        def factor(t, r):
            return _pascal_row(10)[t], _favourable(10, 6, t, r)

        assert argmin_t(10, 6, 1, 2.0, factor) == (2, (45, 15))
        assert select_t(10, 6, 1, 2.0).p == Fraction(1, 3)

    def test_select_t_keeps_the_reduced_pair(self):
        # select_t stores (15, 45) as (1, 3) and reads p and the repetitions
        # from it; under -S, fractions loads only once p is read
        cost = select_t(10, 6, 1, 2.0)
        assert (cost.t, cost.count, cost.subsets, cost.repetitions) == (2, 1, 3, 3)
        assert type(select_t(10, 0, 1, 2.0).p) is int
        proc = _run_child(LAZY_P, "-S")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "3", "False", "1/3", "True"]

    def test_float_alpha_audits_return(self):
        proc = _run_child(FLOAT_ALPHA_AUDITS)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["done"]

    @pytest.mark.parametrize(
        "n,k,alpha,c,loads",
        [(10, 6, "1", "2.0", ""), (4, 1, "4 / 3", "4 ** (4 / 3)", "decimal")],
    )
    def test_audit_builds_no_fraction(self, n, k, alpha, c, loads):
        # under -S no site hook loads a module first
        proc = _run_child(AUDIT_IMPORTS.format(n=n, k=k, alpha=alpha, c=c), "-S")
        assert proc.returncode == 0, proc.stderr
        result, loaded = proc.stdout.split("\n")[:2]
        assert not result.endswith(" 0"), result  # the call audited a tie
        assert loaded == loads


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
                        t = argmin_t(n, k, alpha, c, lambda t, r: kappa(n, k, t, r))[0]
                        h.update(
                            f"{n} {k} {alpha!r} {c!r} {cost.t} {cost.log_cost.hex()} "
                            f"{cost.p} {cost.repetitions} {t}\n".encode()
                        )
        assert h.hexdigest() == COST_MODEL_DIGEST


def _pair(x):
    """The (num, den) of x in lowest terms, as _cost_less takes it."""
    return Fraction(x).as_integer_ratio()


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
            if _cost_less(_pair(c_exact), _pair(a), cand.t, _pair(1 / cand.p),
                          best.t, _pair(1 / best.p)):
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
        factor = Fraction(*kappa(n, k, t, r))
        log_cost = (
            math.log(factor.numerator) - math.log(factor.denominator)
            + float(k - Fraction(t) / alpha) * log_c
        )
        diff = log_cost - best_log
        if diff < -1e-12 or (
            diff <= 1e-12
            and _cost_less(_pair(c_exact), _pair(alpha), t, _pair(factor), best_t,
                           _pair(best_factor))
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
                    t = argmin_t(n, k, a, c, lambda t, r: kappa(n, k, t, r))[0]
                    want = reference_select_t_deterministic(n, k, a, c)
                    assert (t, math.ceil(t / a)) == want, (n, k, c)

    def test_pascal_rows_match_comb(self):
        for m in range(201):
            assert list(_pascal_row(m)) == [math.comb(m, j) for j in range(m + 1)], m


class TestPascalRowCache:
    def test_randomized_plan_keeps_few_rows(self):
        # one select_t reads rows n, k and n - k; a cache of every row a plan
        # read held C(m, j) for all m <= n, 3.0 MB under tracemalloc at n = 400
        ext = vc_exact_oracle(Graph(400, ()))
        _pascal_row.cache_clear()
        tracemalloc.start()
        try:
            rows = list(_plan(400, 1, "randomized", ext, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 401
        assert peak < 1_000_000
        assert _pascal_row.cache_info().currsize <= 4


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
        assert kappa(4, 2, 2, 1) == (3, 2)
        assert Fraction(*kappa(6, 4, 2, 2)) == Fraction(15, 6)
        assert kappa(5, 2, 2, 2) == (10, 1)
        # in lowest terms: C(6, 2) = 15 over C(4, 2) * C(2, 0) = 6
        assert kappa(6, 4, 2, 2) == (5, 2)

    def test_single_term_tail_identity(self):
        assert Fraction(*kappa(5, 2, 2, 2)) == 1 / hyper_tail(5, 2, 2, 2)
        assert Fraction(*kappa(7, 3, 3, 3)) == 1 / hyper_tail(7, 3, 3, 3)

    def test_point_probability_reciprocal(self):
        # 1/kappa equals the enumerated probability of hitting exactly r
        for n, p, q, r in [(8, 3, 4, 2), (9, 4, 3, 1), (10, 5, 5, 3)]:
            target = set(range(p))
            hits = sum(
                1
                for combo in combinations(range(n), q)
                if len(target.intersection(combo)) == r
            )
            assert 1 / Fraction(*kappa(n, p, q, r)) == Fraction(hits, math.comb(n, q))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kappa(4, 5, 2, 1)
        with pytest.raises(ValueError):
            kappa(4, 2, 0, 1)
        with pytest.raises(ValueError):
            kappa(6, 3, 5, 1)  # q > n - p + r
