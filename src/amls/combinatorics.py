"""Exact combinatorial quantities behind the local-search cost analysis.

Conventions used throughout this module:

  * n is the universe size, k the target solution size, t the sample size.
  * Probabilities are exact ``fractions.Fraction`` values (always in lowest
    terms, in [0, 1]); logarithms are taken only at the end, for cost
    comparison, so astronomically small tails never underflow.
  * alpha (the approximation ratio) enters integral expressions like
    floor(alpha*k) and ceil(t/alpha).  Floats such as 1.7 do not represent
    their decimal exactly, so these thresholds are computed through
    ``exact_ratio``, which maps a float to the rational its shortest decimal
    form denotes (1.7 -> 17/10).  Cost exponents stay in ordinary floats.

The central quantity is ``hyper_tail(n, k, t, x)``: the probability that a
uniformly random t-subset of an n-universe meets a fixed k-subset in at
least x elements (the upper tail of the hypergeometric distribution).  The
cost of one sample-then-extend iteration at sample size t is

    c^(k - t/alpha) / hyper_tail(n, k, t, ceil(t/alpha))

and ``select_t`` minimizes it over the integer range t in [0, floor(alpha*k)].
The derandomized search minimizes the same expression with kappa in place of
1/hyper_tail; ``argmin_t`` is the one minimizer behind both.  The sample
budgets use the integral threshold ceil(t/alpha) (a t-subset
meets the target in >= t/alpha elements iff in >= ceil(t/alpha) of them);
the exponent uses the real t/alpha.

``argmin_t`` works on integers only: its factor(t) returns a pair
(num, den) of positive ints whose ratio is the factor, not necessarily in
lowest terms, and a Fraction is built only for a near-tie audit.  Both
factors are reciprocal probabilities, so at least factor(0) = 1; at c == 1
(a polynomial oracle) every t costs its factor alone, so ``argmin_t``
returns t = 0 without calling factor.
``select_t`` feeds it C(n, t) over the favourable count, both read from
cached Pascal rows; one helper sums that count for ``hyper_tail`` too.
Probabilities stay exact Fractions at the API boundary: ``hyper_tail``,
``iteration_cost`` and ``kappa`` are the reference definitions, and
``select_t`` reports its choice through ``iteration_cost``.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Callable
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from . import _EXPORTS

__all__ = _EXPORTS["combinatorics"]


def exact_ratio(x: float | int | Fraction) -> Fraction:
    """Exact rational denoted by x's shortest decimal form.

    exact_ratio(1.7) == Fraction(17, 10), whereas Fraction(1.7) would be the
    binary expansion 7656119366529843/4503599627370496.  Integers and
    Fractions pass through unchanged.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {x}")
    return Fraction(Decimal(str(x)))


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 whenever k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@lru_cache(maxsize=None)
def _pascal_row(m: int) -> tuple[int, ...]:
    """(C(m, 0), ..., C(m, m)), by the exact multiplicative recurrence."""
    row = [1] * (m + 1)
    for j in range(1, m // 2 + 1):
        row[j] = row[m - j] = row[j - 1] * (m - j + 1) // j
    return tuple(row)


def _favourable(n: int, k: int, t: int, x: int) -> int:
    """sum_{y >= x} C(k, y) * C(n-k, t-y) over cached Pascal rows: the
    t-subsets of [n] meeting a fixed k-subset in at least x elements."""
    lo = max(x, 0, t - (n - k))
    hi = min(k, t)
    if lo > hi:
        return 0
    tail = reversed(_pascal_row(n - k)[t - hi : t - lo + 1])
    return sum(map(operator.mul, _pascal_row(k)[lo : hi + 1], tail))


def hyper_tail(n: int, k: int, t: int, x: int) -> Fraction:
    """Pr(|X cap K| >= x) for a uniform t-subset X of [n] and fixed |K| = k.

    Exactly sum_{y >= x} C(k, y) * C(n-k, t-y) / C(n, t).  Returns 1 when the
    threshold is trivially met (e.g. x == 0) and 0 when x > min(k, t).
    """
    if not 0 <= k <= n:
        raise ValueError(f"hyper_tail requires 0 <= k <= n, got k={k}, n={n}")
    if not 0 <= t <= n:
        raise ValueError(f"hyper_tail requires 0 <= t <= n, got t={t}, n={n}")
    if x < 0:
        raise ValueError(f"hyper_tail requires x >= 0, got {x}")
    if x <= max(0, t - (n - k)):  # every y in the support; reads no Pascal row
        return Fraction(1)
    return Fraction(_favourable(n, k, t, x), binomial(n, t))


class IterationCost(namedtuple("IterationCost", "t log_cost p repetitions")):
    """Cost profile of one sample size t for a given (n, k, alpha, c).

    log_cost = (k - t/alpha) * ln(c) - ln(p) where p is the exact success
    probability of a single sample; repetitions = ceil(1/p) is the number of
    samples needed for constant success probability.
    """

    __slots__ = ()


def _log_fraction(p: Fraction) -> float:
    # math.log on the big-int parts; float(p) could under/overflow
    return math.log(p.numerator) - math.log(p.denominator)


def _validate_k(n: int, k: int, alpha, c) -> tuple[Fraction, float]:
    a = exact_ratio(alpha)
    if a < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    c = float(c)
    if not c >= 1.0:
        raise ValueError(f"c must be >= 1, got {c}")
    if not (0 <= k and Fraction(k) <= Fraction(n) / a):
        raise ValueError(f"k={k} outside [0, n/alpha] for n={n}, alpha={alpha}")
    return a, c


def iteration_cost(n: int, k: int, t: int, alpha, c) -> IterationCost:
    """Exact single-iteration cost profile at sample size t.

    Requires 0 <= k <= floor(n/alpha) and 0 <= t <= min(floor(alpha*k), n).
    Under these bounds ceil(t/alpha) <= min(k, t), so the success
    probability is strictly positive.
    """
    a, c = _validate_k(n, k, alpha, c)
    t_max = min(math.floor(a * k), n)
    if not 0 <= t <= t_max:
        raise ValueError(f"t={t} outside [0, min(floor(alpha*k), n)]={t_max}")
    x = math.ceil(Fraction(t) / a)
    p = hyper_tail(n, k, t, x)
    log_cost = float(k - Fraction(t) / a) * math.log(c) - _log_fraction(p)
    return IterationCost(t=t, log_cost=log_cost, p=p, repetitions=math.ceil(1 / p))


_TIE_DIGITS = 60
_TIE_MARGIN = Decimal("1e-50")


def _decimal_ln(x: Fraction) -> Decimal:
    return Decimal(x.numerator).ln() - Decimal(x.denominator).ln()


@lru_cache(maxsize=None)
def _tie_ln_c(c_exact: Fraction) -> Decimal:
    """_decimal_ln(c) at _TIE_DIGITS digits, computed once per c."""
    with localcontext() as ctx:
        ctx.prec = _TIE_DIGITS
        return _decimal_ln(c_exact)


def _cost_less(
    c_exact: Fraction, a: Fraction, t1: int, f1: Fraction, t2: int, f2: Fraction
) -> bool:
    """Whether f1 * c^(-t1/a) < f2 * c^(-t2/a).

    Used as a tie audit when two log costs agree to within float noise.
    With a = A/B, c = p/q and d = t1 - t2, raising both sides to the power
    A gives (num1*den2)^A * q^(dB) < (num2*den1)^A * p^(dB) (p and q swap
    sides when d < 0), compared exactly while A < 256 and |d|*B <= 64.
    Otherwise both sides are compared as logarithms at 60 significant
    digits, and f1's side counts as less only when it is below by more than
    1e-50, so an exact tie is not less; that cost is fixed whatever the
    size of a's numerator.
    """
    d = t1 - t2
    num_a, e = a.numerator, abs(d) * a.denominator
    if num_a < 256 and e <= 64:
        p, q = c_exact.numerator, c_exact.denominator
        if d < 0:
            p, q = q, p
        lhs = (f1.numerator * f2.denominator) ** num_a * q**e
        return lhs < (f2.numerator * f1.denominator) ** num_a * p**e
    with localcontext() as ctx:
        ctx.prec = _TIE_DIGITS
        shift = Fraction(d) / a
        gap = Decimal(shift.numerator) / shift.denominator * _tie_ln_c(c_exact)
        return gap - (_decimal_ln(f1) - _decimal_ln(f2)) > _TIE_MARGIN


def argmin_t(
    n: int, k: int, alpha, c, factor: Callable[[int], tuple[int, int]]
) -> int:
    """Sample size t in [0, min(floor(alpha*k), n)] minimizing
    factor(t) * c^(k - t/alpha).

    factor(t) returns (num, den), two positive ints with num/den >= 1 the
    factor, for t >= 1; factor(0) is 1 and is not called.  At c == 1 the
    answer is 0 and factor is not called at all.  Otherwise comparison
    happens in log space; candidates within 1e-12 of the incumbent are
    re-compared by _cost_less, exactly or with 60-digit logarithms of the
    exact Fractions.  Ties keep the smaller t.
    """
    a, c = _validate_k(n, k, alpha, c)
    if c == 1.0:  # cost = factor(t) >= 1 = factor(0), and ties keep t = 0
        return 0
    num_a, den_a = a.numerator, a.denominator
    log_c = math.log(c)
    c_exact = exact_ratio(c)
    best_t, best_pair, best_log = 0, (1, 1), k * log_c
    for t in range(1, min(k * num_a // den_a, n) + 1):
        num, den = factor(t)
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
            and _cost_less(
                c_exact, a, t, Fraction(num, den), best_t, Fraction(*best_pair)
            )
        ):
            best_t, best_pair, best_log = t, (num, den), log_cost
    return best_t


@lru_cache(maxsize=None)
def select_t(n: int, k: int, alpha, c) -> IterationCost:
    """Integer sample size in [0, floor(alpha*k)] minimizing the iteration cost.

    The argmin_t of c^(k - t/alpha) / p(n, k, t, ceil(t/alpha)), with its
    cost profile.  The factor 1/p is the pair (C(n, t), favourable count),
    the count being the _favourable sum hyper_tail divides; both read cached
    Pascal rows, and only when argmin_t scans.
    """
    a = exact_ratio(alpha)
    num_a, den_a = a.numerator, a.denominator

    def factor(t: int) -> tuple[int, int]:
        # argmin_t keeps t <= alpha*k, so ceil(t/alpha) <= min(k, t): count > 0
        return _pascal_row(n)[t], _favourable(n, k, t, -(-t * den_a // num_a))

    t = argmin_t(n, k, alpha, c, factor)
    return iteration_cost(n, k, t, alpha, c)


def kappa(n: int, p: int, q: int, r: int) -> Fraction:
    """C(n, q) / (C(p, r) * C(n-p, q-r)), exactly.

    The reciprocal of the probability that a uniform q-subset meets a fixed
    p-subset in exactly r elements; it scales the size of set-intersection
    families.  Requires n >= p >= r >= 1 and n - p + r >= q >= r.
    """
    if not n >= p >= r >= 1:
        raise ValueError(f"kappa requires n >= p >= r >= 1, got n={n}, p={p}, r={r}")
    if not n - p + r >= q >= r:
        raise ValueError(
            f"kappa requires n - p + r >= q >= r, got n={n}, p={p}, q={q}, r={r}"
        )
    return Fraction(binomial(n, q), binomial(p, r) * binomial(n - p, q - r))
