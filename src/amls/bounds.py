"""Running-time exponent bases for approximate monotone local search.

Everything here is a pure function of an approximation ratio ``alpha >= 1``
and an extension-oracle base ``c >= 1``, both finite; every base rejects any
other value by the package's one range rule, ``amls._at_least_one``.  The
four bases:

  amls_bound(alpha, c)   unique gamma in (1, 1 + (c-1)/alpha) with
                         D(1/alpha || (gamma-1)/(c-1)) = ln(c)/alpha,
                         where D is the Kullback-Leibler divergence
  brute_bound(alpha)     1 + (alpha-1)^(alpha-1) / alpha^alpha
                         = 1 + exp(-alpha * H(1/alpha)),  with 0^0 = 1
  naive_bound(alpha, c)  c^(1/alpha)
  emls_bound(c)          2 - 1/c

``amls_bound`` has no closed form; it is computed by bisection, which is
valid because gamma -> D(1/alpha || (gamma-1)/(c-1)) is strictly decreasing
on the open interval, diverging to +inf at the left end and dropping to 0 at
the right end.  The bisection evaluates the divergence only at midpoints
inside a certified interval around the root, found by Newton's method and
checked with the loop's own float operations; a midpoint outside it takes
the side that the evaluation would have given, so the root is the plain
bisection's, bit for bit (see ``amls_bound``).  Useful facts (all checked by
the test suite):

  * amls_bound(1, c) == emls_bound(c) exactly,
  * amls_bound < min(brute, naive) for c > 1, and < emls for alpha > 1,
  * amls_bound is strictly increasing in c, strictly decreasing in alpha,
  * amls_bound(alpha, c) < alpha*c / (1 + (alpha-1)*c),
  * amls_bound(alpha, c) -> brute_bound(alpha) as c -> infinity.

Degenerate inputs: c == 1 means the extension step is free (polynomial), the
base collapses to 1 and the critical density delta* to 1/alpha.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import _EXPORTS, _at_least_one

__all__ = _EXPORTS["bounds"]

TOL = 1e-12  # amls_bound's bisection stops at a bracket this wide


def entropy(p: float) -> float:
    """Natural-log entropy -p*ln(p) - (1-p)*ln(1-p), with 0*ln(0) = 0.

    Raises ValueError if p is outside [0, 1].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"entropy requires p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


class BoundReport(
    namedtuple(
        "BoundReport", "alpha c gamma delta_star brute naive emls dominant_benchmark"
    )
):
    """Exponent bundle for one (alpha, c) query.

    delta_star is (gamma - 1)/(c - 1), the critical density at which sampling
    and extension costs balance (1/alpha in the degenerate c == 1 case).
    dominant_benchmark names the argmin of {brute, naive, emls}, ties broken
    in that order.
    """

    __slots__ = ()


def brute_bound(alpha: float) -> float:
    """Base of alpha-approximate exhaustive search.

    1 + (alpha-1)^(alpha-1) / alpha^alpha with the 0^0 = 1 convention, which
    equals 1 + exp(-alpha * entropy(1/alpha)).  brute_bound(1) == 2.  The
    entropy form serves only where the ratio overflows (alpha > 143.016).
    """
    _at_least_one("alpha", alpha)
    try:
        return 1.0 + (alpha - 1.0) ** (alpha - 1.0) / alpha**alpha
    except OverflowError:
        return 1.0 + math.exp(-alpha * entropy(1.0 / alpha))


def naive_bound(alpha: float, c: float) -> float:
    """Base c^(1/alpha) of running the parameterized oracle for every k <= n/alpha."""
    _at_least_one("alpha", alpha)
    _at_least_one("c", c)
    return c ** (1.0 / alpha)


def emls_bound(c: float) -> float:
    """Base 2 - 1/c of exact monotone local search (the alpha = 1 collapse)."""
    _at_least_one("c", c)
    return 2.0 - 1.0 / c


def amls_bound(alpha: float, c: float) -> float:
    """Base of approximate monotone local search, by bisection.

    Returns the unique gamma in (1, 1 + (c-1)/alpha) at which the
    divergence D(1/alpha || (gamma-1)/(c-1)) equals ln(c)/alpha.  The
    objective is strictly decreasing in gamma on that interval (+inf at the
    left end, 0 at the right end), so plain bisection converges; only
    interval midpoints are ever evaluated, which keeps the divergent
    endpoints out of the arithmetic.  The bracket is narrowed until its width
    is at most TOL, giving a deterministic, bit-reproducible result within
    TOL of the root; a first bracket (1, 1 + (c-1)/alpha) already that narrow
    returns its midpoint.

    c == 1 is the degenerate polynomial-oracle case and returns exactly 1.0.

    The divergence, a*ln(a/b) + (1-a)*ln((1-a)/(1-b)) in ``_divergence``,
    is evaluated only at midpoints inside an interval (low, high) around the
    root that ``_certified_interval`` has checked; a midpoint <= low moves
    ``lo`` and one >= high moves ``hi`` unevaluated.
    This returns the plain bisection's root bit for bit.  Write T for the
    target ln(c)/alpha, D for the exact divergence at the loop's computed b,
    and D^ for the computed divergence:

      * the computed b never decreases as gamma grows (rounding is
        monotone), and D strictly decreases in b up to its minimum, within
        an ulp of a, where D is a few ulps;
      * each computed term is within a few ulps times (1 + |term|) of the
        exact one, and the second term lies in [-1/e, 0] on the bracket, so
        |D^ - D| < 2^-50 * (3 + 2 D);
      * the interval is accepted only if D^(low) - T > M and
        T - D^(high) > M, with M = 2^-40 * (1 + T), over 2^8 times that
        error near the root.

    Hence D^ > T at every midpoint <= low and D^ < T at every midpoint
    >= high, whatever the estimate behind low and high.  When no interval
    passes, as when T <= M (for example c = 1 + 2^-52), low and high are the
    bracket's ends and every midpoint is evaluated.
    """
    _at_least_one("alpha", alpha)
    _at_least_one("c", c)
    if c == 1.0:
        return 1.0
    a = 1.0 / alpha
    one_minus_a = 1.0 - a  # 0 at alpha == 1, where the second term drops
    c_minus_1 = c - 1.0
    target = math.log(c) / alpha
    lo = 1.0
    hi = 1.0 + c_minus_1 / alpha
    low, high = _certified_interval(a, one_minus_a, c_minus_1, target, hi)
    while hi - lo > TOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket narrower than one ulp
            break
        if mid <= low:
            lo = mid
        elif mid >= high:
            hi = mid
        elif _divergence(mid, a, one_minus_a, c_minus_1) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _divergence(gamma: float, a: float, one_minus_a: float, c_minus_1: float) -> float:
    """D(a || b) = a*ln(a/b) + (1-a)*ln((1-a)/(1-b)) at b = (gamma-1)/(c-1),
    unchecked; the second term is dropped when 1 - a is 0."""
    b = (gamma - 1.0) / c_minus_1
    if not b:  # underflow: the divergence's limit at the bracket's left end
        return math.inf
    total = a * math.log(a / b)
    if one_minus_a:
        total += one_minus_a * math.log(one_minus_a / (1.0 - b))
    return total


def _certified_interval(a, one_minus_a, c_minus_1, target, hi):
    """(low, high) with _divergence - target > M at low and < -M at high.

    M = 2^-40 * (1 + target).  A side outside (1, hi) is not checked, since
    no midpoint lies beyond it; (1.0, hi) when no interval passes.  See
    ``amls_bound`` for why skipping midpoints outside it is exact.

    The estimate is Newton's method on u = ln b for g(u) = D(a || e^u) - T.
    It starts left of the root, where g is convex and decreasing, so the
    iterates rise toward the root without overshooting: the start is the
    root of D without its term -(1-a) ln(1-b) >= 0, less 10^-3.  It stops at
    b >= a, at a step below 10^-15 |u| or after 30 steps.  The half-width
    starts at 2M over the slope of D at the estimate and grows 16-fold, at
    most 6 times.  An arithmetic failure on the way leaves (1.0, hi).
    """
    whole = (1.0, hi)
    margin = 2.0**-40 * (1.0 + target)
    if not target > margin:
        return whole
    try:
        log_a = math.log(a)
        entropy_part = one_minus_a * math.log(one_minus_a) if one_minus_a else 0.0
        u = log_a - (target - entropy_part) / a - 1e-3
        for _ in range(30):
            if not u < log_a:  # b >= a
                break
            b = math.exp(u)
            g = a * (log_a - u) + entropy_part - one_minus_a * math.log1p(-b) - target
            step = g / (one_minus_a * b / (1.0 - b) - a)
            u -= step
            if abs(step) < 1e-15 * abs(u):
                break
        b = math.exp(min(u, log_a))
        root = 1.0 + b * c_minus_1
        half = 2.0 * margin * c_minus_1 / (a / b - one_minus_a / (1.0 - b))
        terms = (a, one_minus_a, c_minus_1)
        for _ in range(7):
            low, high = root - half, root + half
            if (low <= 1.0 or _divergence(low, *terms) - target > margin) and (
                high >= hi or target - _divergence(high, *terms) > margin
            ):
                return low, high
            half *= 16.0
    except (ZeroDivisionError, OverflowError, ValueError):  # from exp, log and /
        pass
    return whole


def bound_report(alpha: float, c: float) -> BoundReport:
    """Evaluate all four bases plus delta* for one (alpha, c) pair; both
    arguments are checked as amls_bound checks them."""
    gamma = amls_bound(alpha, c)
    benchmarks = (brute_bound(alpha), naive_bound(alpha, c), emls_bound(c))
    # the first minimum wins, so ties go to brute, then naive
    dominant = ("brute", "naive", "emls")[benchmarks.index(min(benchmarks))]
    delta_star = 1.0 / alpha if c == 1.0 else (gamma - 1.0) / (c - 1.0)
    return BoundReport(alpha, c, gamma, delta_star, *benchmarks, dominant)


def bound_table(alphas: list[float], cs: list[float]) -> list[BoundReport]:
    """One report per (alpha, c) pair of the cartesian product, alphas outer."""
    return [bound_report(alpha, c) for alpha in alphas for c in cs]


CSV_HEADER = "alpha,c,amls,brute,naive,emls,dominant"


def format_csv_rows(reports: list[BoundReport]) -> list[str]:
    """CSV lines (no header) with 6 significant digits, '.' decimal point."""
    return [
        "{:.6g},{:.6g},{:.6g},{:.6g},{:.6g},{:.6g},{}".format(
            r.alpha, r.c, r.gamma, r.brute, r.naive, r.emls, r.dominant_benchmark
        )
        for r in reports
    ]
