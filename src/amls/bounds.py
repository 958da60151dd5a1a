"""Running-time exponent bases for approximate monotone local search.

Everything here is a pure function of an approximation ratio ``alpha >= 1``
and an extension-oracle base ``c >= 1``.  The four bases:

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
the right end.  Useful facts (all checked by the test suite):

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
from dataclasses import dataclass

__all__ = [
    "BoundQuery",
    "BoundReport",
    "entropy",
    "kl_divergence",
    "amls_bound",
    "brute_bound",
    "naive_bound",
    "emls_bound",
    "bound_report",
    "bound_table",
    "CSV_HEADER",
    "format_csv_rows",
]


def entropy(p: float) -> float:
    """Natural-log entropy -p*ln(p) - (1-p)*ln(1-p), with 0*ln(0) = 0.

    Raises ValueError if p is outside [0, 1].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"entropy requires p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def kl_divergence(a: float, b: float) -> float:
    """Kullback-Leibler divergence a*ln(a/b) + (1-a)*ln((1-a)/(1-b)) in nats.

    Requires a in [0, 1] and b in (0, 1).  Terms with a == 0 or a == 1 follow
    the 0*ln(0) = 0 convention, so D(1 || b) = ln(1/b) and
    D(0 || b) = ln(1/(1-b)).
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"kl_divergence requires a in [0, 1], got {a}")
    if not 0.0 < b < 1.0:
        raise ValueError(f"kl_divergence requires b in (0, 1), got {b}")
    total = 0.0
    if a > 0.0:
        total += a * math.log(a / b)
    if a < 1.0:
        total += (1.0 - a) * math.log((1.0 - a) / (1.0 - b))
    return total


@dataclass(frozen=True)
class BoundQuery:
    """One (alpha, c) query with an absolute tolerance on the bisection root.

    For c > 1 the tolerance must be below the first bracket's width
    (c-1)/alpha; a wider one would skip the bisection and return the
    bracket's midpoint.
    """

    alpha: float
    c: float
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 1.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 1, got {self.alpha}")
        if not 1.0 <= self.c < math.inf:
            raise ValueError(f"c must be finite and >= 1, got {self.c}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        width = (self.c - 1.0) / self.alpha
        if self.c > 1.0 and self.tol >= width:
            raise ValueError(
                f"tol must be below the bracket width (c-1)/alpha = {width}, "
                f"got {self.tol}"
            )


@dataclass(frozen=True)
class BoundReport:
    """Exponent bundle for one (alpha, c) query.

    delta_star is (gamma - 1)/(c - 1), the critical density at which sampling
    and extension costs balance (1/alpha in the degenerate c == 1 case).
    dominant_benchmark names the argmin of {brute, naive, emls}, ties broken
    in that order.
    """

    alpha: float
    c: float
    gamma: float
    delta_star: float
    brute: float
    naive: float
    emls: float
    dominant_benchmark: str


def brute_bound(alpha: float) -> float:
    """Base of alpha-approximate exhaustive search.

    1 + (alpha-1)^(alpha-1) / alpha^alpha with the 0^0 = 1 convention, which
    equals 1 + exp(-alpha * entropy(1/alpha)).  brute_bound(1) == 2.
    """
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return 1.0 + (alpha - 1.0) ** (alpha - 1.0) / alpha**alpha


def naive_bound(alpha: float, c: float) -> float:
    """Base c^(1/alpha) of running the parameterized oracle for every k <= n/alpha."""
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if not c >= 1.0:
        raise ValueError(f"c must be >= 1, got {c}")
    return c ** (1.0 / alpha)


def emls_bound(c: float) -> float:
    """Base 2 - 1/c of exact monotone local search (the alpha = 1 collapse)."""
    if not c >= 1.0:
        raise ValueError(f"c must be >= 1, got {c}")
    return 2.0 - 1.0 / c


def amls_bound(alpha: float, c: float, tol: float = 1e-12) -> float:
    """Base of approximate monotone local search, by bisection.

    Returns the unique gamma in (1, 1 + (c-1)/alpha) at which
    kl_divergence(1/alpha, (gamma-1)/(c-1)) equals ln(c)/alpha.  The
    objective is strictly decreasing in gamma on that interval (+inf at the
    left end, 0 at the right end), so plain bisection converges; only
    interval midpoints are ever evaluated, which keeps the divergent
    endpoints out of the arithmetic.  The bracket is narrowed until its width
    is at most ``tol``, giving a deterministic, bit-reproducible result.

    c == 1 is the degenerate polynomial-oracle case and returns exactly 1.0.

    The loop evaluates kl_divergence(a, b) inline, with the same float
    operations in the same order: BoundQuery has checked the arguments,
    a = 1/alpha lies in (0, 1] and every midpoint gives b in (0, 1).
    """
    BoundQuery(alpha, c, tol)  # validate
    if c == 1.0:
        return 1.0
    log = math.log
    a = 1.0 / alpha
    one_minus_a = 1.0 - a  # 0 at alpha == 1, where the second term drops
    c_minus_1 = c - 1.0
    target = log(c) / alpha
    lo = 1.0
    hi = 1.0 + c_minus_1 / alpha
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket narrower than one ulp
            break
        b = (mid - 1.0) / c_minus_1
        divergence = a * log(a / b)
        if one_minus_a:
            divergence += one_minus_a * log(one_minus_a / (1.0 - b))
        if divergence > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bound_report(query: BoundQuery) -> BoundReport:
    """Evaluate all four bases plus delta* for one query."""
    gamma = amls_bound(query.alpha, query.c, query.tol)
    benchmarks = {
        "brute": brute_bound(query.alpha),
        "naive": naive_bound(query.alpha, query.c),
        "emls": emls_bound(query.c),
    }
    dominant = min(benchmarks, key=benchmarks.__getitem__)  # dict order breaks ties
    return BoundReport(
        alpha=query.alpha,
        c=query.c,
        gamma=gamma,
        delta_star=1.0 / query.alpha if query.c == 1.0 else (gamma - 1.0) / (query.c - 1.0),
        brute=benchmarks["brute"],
        naive=benchmarks["naive"],
        emls=benchmarks["emls"],
        dominant_benchmark=dominant,
    )


def bound_table(
    alphas: list[float], cs: list[float], tol: float = 1e-12
) -> list[BoundReport]:
    """One report per (alpha, c) pair of the cartesian product, alphas outer."""
    return [
        bound_report(BoundQuery(alpha, c, tol)) for alpha in alphas for c in cs
    ]


CSV_HEADER = "alpha,c,amls,brute,naive,emls,dominant"


def format_csv_rows(reports: list[BoundReport]) -> list[str]:
    """CSV lines (no header) with 6 significant digits, '.' decimal point."""
    return [
        "{:.6g},{:.6g},{:.6g},{:.6g},{:.6g},{:.6g},{}".format(
            r.alpha, r.c, r.gamma, r.brute, r.naive, r.emls, r.dominant_benchmark
        )
        for r in reports
    ]
