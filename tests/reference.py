"""Reference forms the tests check production code against.

None is run by an ``amls`` command.  kl_divergence is the checked
Kullback-Leibler divergence whose float operations bounds._divergence
repeats unchecked; hyper_tail and iteration_cost are the hypergeometric
tail and one sample size's cost profile, by math.comb alone, that
combinatorics.select_t's choice and its p are checked against (the range
rule is combinatorics._validate_k's); relaxed_log_cost evaluates the
continuous relaxation of the log iteration cost in two algebraic forms, a
cross-check of bounds.entropy and kl_divergence; empirical_brute_exponent
is the finite-n exponent that converges to ln(bounds.brute_bound(alpha));
family_size_range is the exact range a greedy set-intersection family's
size lies in; decimal_ratio is the decimal-module reading of a float that
amls._ratio replaces, and the tests' exact alpha.
"""

import math
from decimal import Decimal
from fractions import Fraction

from amls.bounds import entropy
from amls.combinatorics import IterationCost, _validate_k


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


def hyper_tail(n: int, k: int, t: int, x: int) -> Fraction:
    """Pr(|X cap K| >= x) for a uniform t-subset X of [n] and fixed |K| = k.

    Exactly sum_{y >= x} C(k, y) * C(n-k, t-y) / C(n, t), each binomial by
    math.comb (which is 0 where t - y > n - k).  Returns 1 when x == 0 and 0
    when x > min(k, t).
    """
    if not 0 <= k <= n:
        raise ValueError(f"hyper_tail requires 0 <= k <= n, got k={k}, n={n}")
    if not 0 <= t <= n:
        raise ValueError(f"hyper_tail requires 0 <= t <= n, got t={t}, n={n}")
    if x < 0:
        raise ValueError(f"hyper_tail requires x >= 0, got {x}")
    ways = sum(math.comb(k, y) * math.comb(n - k, t - y) for y in range(x, min(k, t) + 1))
    return Fraction(ways, math.comb(n, t))


def iteration_cost(n: int, k: int, t: int, alpha, c) -> IterationCost:
    """Exact single-iteration cost profile at sample size t.

    Requires 0 <= k <= floor(n/alpha) and 0 <= t <= min(floor(alpha*k), n).
    Under these bounds ceil(t/alpha) <= min(k, t), so the success
    probability is strictly positive.  log_cost is the float expression
    select_t evaluates, (k - t/alpha) * ln(c) - ln(p) with k - t/alpha
    correctly rounded and ln(p) taken on p's numerator and denominator.
    """
    num, den, c = _validate_k(n, k, alpha, c)
    t_max = min(k * num // den, n)
    if not 0 <= t <= t_max:
        raise ValueError(f"t={t} outside [0, min(floor(alpha*k), n)]={t_max}")
    p = hyper_tail(n, k, t, -(-t * den // num))
    log_p = math.log(p.numerator) - math.log(p.denominator)
    log_cost = ((k * num - t * den) / num) * math.log(c) - log_p
    return IterationCost(t, log_cost, p.numerator, p.denominator)


def decimal_ratio(x) -> Fraction:
    """The rational a float's shortest decimal form denotes, by way of
    Decimal; an int or a Fraction is its own."""
    return Fraction(Decimal(repr(x))) if isinstance(x, float) else Fraction(x)


def _alpha(alpha) -> Fraction:
    a = decimal_ratio(alpha)
    if a < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return a


def _xlogy(x: float, y: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(y)


def relaxed_log_cost(n: int, k: int, t, alpha, c, form: str = "entropy") -> float:
    """Continuous relaxation of the log iteration cost, in two algebraic forms.

    With rho = (k - t/alpha)/(n - t) and H the entropy function:

      entropy form: (k - t/alpha) ln(c) - t*H(1/alpha) - (n-t)*H(rho)
      kl form:      (k - t/alpha) ln(c) + t*D(1/alpha || rho)
                    + k*ln(rho) + (n-k)*ln(1-rho)

    The two are algebraically identical; evaluating both is a numeric
    cross-check.  Requires c >= 1, 0 <= t < n and 0 <= rho <= 1.  At
    rho == 0 and rho == 1 the kl form's infinities cancel pairwise; the
    cancelled limit is evaluated directly.
    """
    a_frac = _alpha(alpha)
    c = float(c)
    if not c >= 1.0:
        raise ValueError(f"c must be >= 1, got {c}")
    if not 0 <= t < n:
        raise ValueError(f"t={t} outside [0, n) for n={n}")
    t_frac = decimal_ratio(t)
    rho_frac = (Fraction(k) - t_frac / a_frac) / (Fraction(n) - t_frac)
    if not 0 <= rho_frac <= 1:
        raise ValueError(f"(k - t/alpha)/(n - t) = {rho_frac} outside [0, 1]")
    a = 1.0 / float(a_frac)
    t = float(t_frac)
    rho = float(rho_frac)
    base = (k - t * a) * math.log(c)
    if form == "entropy":
        return base - t * entropy(a) - (n - t) * entropy(rho)
    if form != "kl":
        raise ValueError(f"form must be 'entropy' or 'kl', got {form!r}")
    if rho_frac == 0:  # k == t/alpha: the k*ln(rho) and t*a*ln(1/rho) poles cancel
        return base + _xlogy(k, a) + _xlogy(t * (1.0 - a), 1.0 - a)
    if rho_frac == 1:  # k - t/alpha == n - t: (n-k)*ln(1-rho) pole cancels likewise
        return base + _xlogy(t * a, a) + _xlogy(t * (1.0 - a), 1.0 - a)
    kl_term = 0.0 if t == 0.0 else t * kl_divergence(a, rho)
    return base + kl_term + _xlogy(k, rho) + _xlogy(n - k, 1.0 - rho)


def empirical_brute_exponent(n: int, alpha) -> float:
    """(1/n) * ln( max over k in [0, n/alpha) of C(n, k) / C(floor(alpha*k), k) ).

    The maximum is taken over exact big-integer ratios; a single logarithm is
    applied at the end.  As n grows this converges to ln(brute_bound(alpha)).
    """
    a = _alpha(alpha)
    if n < 2:
        raise ValueError(f"empirical_brute_exponent requires n >= 2, got {n}")
    best = Fraction(0)
    k = 0
    while Fraction(k) * a < n:
        ratio = Fraction(math.comb(n, k), math.comb(math.floor(a * k), k))
        if ratio > best:
            best = ratio
        k += 1
    return (math.log(best.numerator) - math.log(best.denominator)) / n


def family_size_range(n: int, p: int, q: int, r: int, strong: bool) -> tuple:
    """(ceil(C(n,p)/M), H(M)*C(n,p)/M) as Fractions, around a greedy family's size.

    M = sum of C(q,y)*C(n-q,p-y) over y >= r (weak) or y = r alone (strong)
    is the number of p-subsets one q-subset serves, so C(n,p)/M is the
    fractional set-cover optimum by symmetry and no family is smaller than
    its ceiling.  Greedy set cover stays within H(M), the M-th harmonic
    number, of that optimum.
    """
    ys = [r] if strong else range(r, min(p, q) + 1)
    m = sum(math.comb(q, y) * math.comb(n - q, p - y) for y in ys)
    lp = Fraction(math.comb(n, p), m)
    while len(_HARMONIC) <= m:
        _HARMONIC.append(_HARMONIC[-1] + Fraction(1, len(_HARMONIC)))
    return Fraction(math.ceil(lp)), _HARMONIC[m] * lp


_HARMONIC = [Fraction(0)]  # _HARMONIC[m] is H(m), extended as family_size_range asks
