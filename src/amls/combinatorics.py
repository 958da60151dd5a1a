"""Exact combinatorial quantities behind the local-search cost analysis.

Conventions used throughout this module:

  * n is the universe size, k the target solution size, t the sample size.
  * Probabilities are exact: an int pair in lowest terms, read as the int
    1 where t = 0 (X = {} always succeeds), else as a
    ``fractions.Fraction`` in (0, 1];
    logarithms are taken only at the end, for cost comparison, so
    astronomically small tails never underflow.
  * alpha (the approximation ratio) enters integral expressions like
    floor(alpha*k) and ceil(t/alpha).  Floats such as 1.7 do not represent
    their decimal exactly, so these thresholds are computed on the int pair
    (num, den) of ``amls._ratio``, the rational alpha's shortest decimal
    form denotes (1.7 -> (17, 10)): k*num//den and -(-t*den//num), as the
    engine's plan computes them.  The exponent k - t/alpha is the correctly
    rounded float (k*num - t*den)/num.

The central quantity is the hypergeometric tail p(n, k, t, x): the
probability that a uniformly random t-subset of an n-universe meets a fixed
k-subset in at least x elements.  The cost of one sample-then-extend
iteration at sample size t is

    c^(k - t/alpha) / p(n, k, t, ceil(t/alpha))

and ``select_t`` minimizes it over the integer range t in [0, floor(alpha*k)].
The derandomized search minimizes the same expression with kappa in place of
1/p; ``argmin_t`` is the one minimizer behind both.  The sample budgets use
the integral threshold ceil(t/alpha) (a t-subset meets the target in
>= t/alpha elements iff in >= ceil(t/alpha) of them); the exponent uses the
real t/alpha.

``argmin_t`` works on integers only: its factor(t, r) gets the threshold
r = ceil(t/alpha) with t and returns a pair (num, den) of positive ints
whose ratio is the factor, not necessarily in lowest terms; a near-tie
audit compares these pairs with those of c and alpha and builds no
Fraction.  It returns the winning t with its pair, (0, (1, 1)) at t = 0.
Both factors are reciprocal probabilities, so at least factor(0, 0) = 1;
at c == 1 (a polynomial oracle) every t costs its factor alone, so
``argmin_t`` returns t = 0 without calling factor, and the engine's plan
takes t = 0 by the same rule without loading this module.  ``select_t`` feeds it
C(n, t) over the favourable count, read from Pascal rows n, k and n - k
(the last four rows are cached), and keeps the winner's pair, reduced:
its exact p is count / C(n, t), and ceil(1/p) an int division of the
pair.  ``kappa`` returns its reduced int pair, which the deterministic
plan hands ``argmin_t`` as is.  ``fractions`` loads only where a caller
reads a t >= 1 profile's p; ``decimal`` only in the audit's 60-digit
fallback.  So no solve, randomized or deterministic, loads either outside
that fallback: every plan reads the pairs alone.  The reference
definitions of the tail and of one t's cost profile, by ``math.comb``
alone, are ``hyper_tail`` and ``iteration_cost`` in ``tests/reference.py``;
the tests check ``select_t`` against them.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache

from . import _EXPORTS, _at_least_one, _check_npqr, _ratio

__all__ = _EXPORTS["combinatorics"]


@lru_cache(maxsize=4)
def _pascal_row(m: int) -> tuple[int, ...]:
    """(C(m, 0), ..., C(m, m)), by the exact multiplicative recurrence."""
    row = [1] * (m + 1)
    for j in range(1, m // 2 + 1):
        row[j] = row[m - j] = row[j - 1] * (m - j + 1) // j
    return tuple(row)


def _favourable(n: int, k: int, t: int, x: int) -> int:
    """sum_{y >= x} C(k, y) * C(n-k, t-y) over cached Pascal rows: the
    t-subsets of [n] meeting a fixed k-subset in at least x elements, so
    p(n, k, t, x) times C(n, t)."""
    lo = max(x, 0, t - (n - k))
    hi = min(k, t)
    if lo > hi:
        return 0
    tail = reversed(_pascal_row(n - k)[t - hi : t - lo + 1])
    return sum(map(operator.mul, _pascal_row(k)[lo : hi + 1], tail))


class IterationCost(namedtuple("IterationCost", "t log_cost count subsets")):
    """Cost profile of one sample size t for a given (n, k, alpha, c).

    count / subsets, in lowest terms, is the exact success probability of a
    single sample: the favourable count over C(n, t), reduced, and (1, 1) at
    t = 0.  log_cost = (k - t/alpha) * ln(c) - ln(p), with ln(p) taken on
    the two ints.  p and repetitions are read from the pair: p is the int 1
    at t = 0 and a Fraction otherwise, built (and ``fractions`` loaded)
    only when read; repetitions = ceil(1/p), by int division, is the number
    of samples needed for constant success probability.
    """

    __slots__ = ()

    @property
    def p(self):
        if not self.t:
            return 1
        from fractions import Fraction

        return Fraction(self.count, self.subsets)

    @property
    def repetitions(self) -> int:
        return -(-self.subsets // self.count)


def _validate_k(n: int, k: int, alpha, c) -> tuple[int, int, float]:
    """(num, den) of amls._ratio(alpha) and float(c), once k is in [0, n/alpha]."""
    _at_least_one("alpha", alpha)
    _at_least_one("c", c)
    num, den = _ratio(alpha)
    if not 0 <= k * num <= n * den:
        raise ValueError(f"k={k} outside [0, n/alpha] for n={n}, alpha={alpha}")
    return num, den, float(c)


_TIE_DIGITS = 60


def _cost_less(c, a, t1: int, f1, t2: int, f2) -> bool:
    """Whether f1 * c^(-t1/a) < f2 * c^(-t2/a), for the int pairs (num, den)
    c = (p, q), a = (A, B), f1 = (n1, d1) and f2 = (n2, d2), not necessarily
    in lowest terms: the tie audit when two log costs agree to float noise.

    With d = t1 - t2, raising both sides to the power A gives
    (n1*d2)^A * q^(dB) < (n2*d1)^A * p^(dB) (p and q swap sides when d < 0),
    compared exactly while A < 256 and |d|*B <= 64 (scaling a pair by g
    scales both sides by a power of g alike); otherwise as logarithms at 60
    significant digits, with d/a as the quotient dB/A rounded once, at a
    cost fixed whatever the size of A.  f1's side counts as less there only
    when below by more than 1e-50, so an exact tie is not less.
    """
    (p, q), (num_a, den_a), (n1, d1), (n2, d2) = c, a, f1, f2
    d = t1 - t2
    e = abs(d) * den_a
    if num_a < 256 and e <= 64:
        if d < 0:
            p, q = q, p
        return (n1 * d2) ** num_a * q**e < (n2 * d1) ** num_a * p**e
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = _TIE_DIGITS
        ln = lambda x: Decimal(x).ln()
        gap = Decimal(d * den_a) / num_a * (ln(p) - ln(q))
        return gap - ((ln(n1) - ln(d1)) - (ln(n2) - ln(d2))) > Decimal("1e-50")


def argmin_t(
    n: int, k: int, alpha, c, factor: Callable[[int, int], tuple[int, int]]
) -> tuple[int, tuple[int, int]]:
    """(t, factor's pair at t) for the sample size t in
    [0, min(floor(alpha*k), n)] minimizing factor(t, ceil(t/alpha)) *
    c^(k - t/alpha); (0, (1, 1)) when t = 0 wins.

    factor(t, r) returns (num, den), two positive ints with num/den >= 1 the
    factor, for t >= 1 and r = ceil(t/alpha) <= min(k, t); factor(0, 0) is 1
    and is not called.  At c == 1 the answer is 0 and factor is not called
    at all.  Otherwise comparison happens in log space; candidates within
    1e-12 of the incumbent are re-compared by _cost_less on the factor
    pairs and the pairs of c and alpha, exactly or with 60-digit
    logarithms.  Ties keep the smaller t.
    """
    num_a, den_a, c = _validate_k(n, k, alpha, c)
    if c == 1.0:  # cost = factor(t, r) >= 1 = factor(0, 0), and ties keep t = 0
        return 0, (1, 1)
    log_c = math.log(c)
    best_t, best_pair, best_log = 0, (1, 1), k * log_c
    for t in range(1, min(k * num_a // den_a, n) + 1):
        num, den = factor(t, -(-t * den_a // num_a))
        # k - t/alpha by correctly rounded int division, as float(Fraction)
        # gives it.  log(num) - log(den) of an unreduced pair can differ from
        # the reduced value in the last ulp; the 1e-12 window and the exact
        # audit decide near ties, so only this screen sees that.
        log_cost = ((k * num_a - t * den_a) / num_a) * log_c + (
            math.log(num) - math.log(den)
        )
        diff = log_cost - best_log
        if diff < -1e-12 or (
            diff <= 1e-12
            and _cost_less(_ratio(c), (num_a, den_a), t, (num, den), best_t, best_pair)
        ):
            best_t, best_pair, best_log = t, (num, den), log_cost
    return best_t, best_pair


def select_t(n: int, k: int, alpha, c) -> IterationCost:
    """Integer sample size in [0, floor(alpha*k)] minimizing the iteration cost.

    The argmin_t of c^(k - t/alpha) / p(n, k, t, ceil(t/alpha)), with its
    cost profile.  The factor 1/p is the pair (C(n, t), favourable count),
    both read from cached Pascal rows, and only when argmin_t scans; the
    profile keeps the winner's pair inverted and reduced by math.gcd, so p
    is exactly count / C(n, t) and log_cost is the float a Fraction's parts
    give.
    """
    def factor(t: int, x: int) -> tuple[int, int]:
        # x = ceil(t/alpha) <= min(k, t), so the count is positive
        return _pascal_row(n)[t], _favourable(n, k, t, x)

    t, (subsets, count) = argmin_t(n, k, alpha, c, factor)
    g = math.gcd(count, subsets)  # (1, 1) at t = 0, where X = {} always succeeds
    count, subsets = count // g, subsets // g
    num, den = _ratio(alpha)
    # ln p on the reduced pair, as on a Fraction's parts; a float p could
    # under/overflow
    log_p = math.log(count) - math.log(subsets)
    log_cost = ((k * num - t * den) / num) * math.log(c) - log_p
    return IterationCost(t, log_cost, count, subsets)


def kappa(n: int, p: int, q: int, r: int) -> tuple[int, int]:
    """C(n, q) / (C(p, r) * C(n-p, q-r)), exactly, as its int pair in lowest
    terms: both counts divided by their math.gcd, the parts a Fraction of
    them has.

    The reciprocal of the probability that a uniform q-subset meets a fixed
    p-subset in exactly r elements; it scales the size of set-intersection
    families.  argmin_t takes the pair as the deterministic plan's factor.
    Requires n >= p >= r >= 1 and n - p + r >= q >= r.
    """
    _check_npqr(n, p, q, r)
    subsets, exact = math.comb(n, q), math.comb(p, r) * math.comb(n - p, q - r)
    g = math.gcd(subsets, exact)
    return subsets // g, exact // g
