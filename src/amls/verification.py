"""Self-contained invariant suites behind the ``verify`` CLI subcommand.

Each suite re-derives a module's contracts from scratch at reduced scale
(small universes, fixed seeds) and reports one (name, ok, detail) triple per
check.  Everything is deterministic, so a passing build passes on every run.
The pytest suite covers the same ground at full scale; these checks exist so
an installed artifact can vet itself without a test harness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Callable

from . import bounds, combinatorics, engine, families, problems

__all__ = ["SUITES", "run_suite", "run_suites"]

Check = tuple[str, bool, str]

_ALPHA_GRID = [1 + i / 10 for i in range(21)]
_C_GRID = [1.01, 1.1, 2.0, 10.0, 1024.0]


def _suite_exponents() -> list[Check]:
    checks: list[Check] = []

    worst = 0.0
    for alpha in _ALPHA_GRID:
        for c in _C_GRID:
            gamma = bounds.amls_bound(alpha, c)
            residual = abs(
                bounds.kl_divergence(1 / alpha, (gamma - 1) / (c - 1))
                - math.log(c) / alpha
            )
            worst = max(worst, residual)
    checks.append(
        ("divergence identity on the grid (<= 1e-9)", worst <= 1e-9, f"worst {worst:.2e}")
    )

    dominated = all(
        bounds.amls_bound(alpha, c) < min(bounds.brute_bound(alpha), bounds.naive_bound(alpha, c))
        and (alpha == 1.0 or bounds.amls_bound(alpha, c) < bounds.emls_bound(c))
        for alpha in _ALPHA_GRID
        for c in _C_GRID
    )
    checks.append(("strict benchmark dominance on the grid", dominated, ""))

    mono_c = all(
        bounds.amls_bound(alpha, c1) < bounds.amls_bound(alpha, c2)
        for alpha in _ALPHA_GRID
        for c1, c2 in zip(_C_GRID, _C_GRID[1:])
    )
    mono_alpha = all(
        bounds.amls_bound(a2, c) < bounds.amls_bound(a1, c)
        for c in _C_GRID
        for a1, a2 in zip(_ALPHA_GRID, _ALPHA_GRID[1:])
    )
    checks.append(("monotone in c and in alpha", mono_c and mono_alpha, ""))

    upper = all(
        bounds.amls_bound(alpha, c) < alpha * c / (1 + (alpha - 1) * c)
        for alpha in _ALPHA_GRID
        for c in _C_GRID
    )
    checks.append(("upper bound alpha*c/(1+(alpha-1)c)", upper, ""))

    conv = max(
        abs(bounds.amls_bound(alpha, 1e9) - bounds.brute_bound(alpha))
        for alpha in (1.1, 1.5, 2.0, 3.0)
    )
    checks.append(("convergence to the exhaustive base (<= 1e-3)", conv <= 1e-3, f"worst {conv:.2e}"))

    repeat = all(
        bounds.amls_bound(alpha, c) == bounds.amls_bound(alpha, c)
        for alpha in (1.0, 1.3, 2.0)
        for c in (1.5, 7.0)
    )
    checks.append(("bisection is bit-reproducible", repeat, ""))
    return checks


def _hyper_oracle(n: int, k: int, t: int) -> dict[int, Fraction]:
    total = combinatorics.binomial(n, t)
    counts: dict[int, int] = {}
    target = set(range(k))
    for combo in combinations(range(n), t):
        hits = len(target.intersection(combo))
        counts[hits] = counts.get(hits, 0) + 1
    return {x: Fraction(c, total) for x, c in counts.items()}


def _suite_combinatorics() -> list[Check]:
    checks: list[Check] = []

    pascal: dict[tuple[int, int], int] = {}
    for n in range(41):
        for k in range(n + 1):
            pascal[(n, k)] = (
                1 if k in (0, n) else pascal[(n - 1, k - 1)] + pascal[(n - 1, k)]
            )
    ok = all(combinatorics.binomial(n, k) == v for (n, k), v in pascal.items())
    checks.append(("binomials match the additive recurrence (n <= 40)", ok, ""))

    ok = True
    for n in range(1, 10):
        for k in range(n + 1):
            for t in range(n + 1):
                dist = _hyper_oracle(n, k, t)
                for x in range(n + 2):
                    expected = sum(p for hits, p in dist.items() if hits >= x)
                    if combinatorics.hyper_tail(n, k, t, x) != expected:
                        ok = False
    checks.append(("hypergeometric tails match enumeration (n <= 9)", ok, ""))

    ok = all(
        combinatorics.hyper_symmetry_check(n, k, t, x)
        for n in range(1, 10)
        for k in range(n + 1)
        for t in range(n + 1)
        for x in range(min(k, t) + 1)
    )
    checks.append(("tail symmetry under swapping k and t (n <= 9)", ok, ""))

    worst = 0.0
    cases = 0
    for n in (20, 50, 90):
        for alpha in (1.0, 1.5, 2.0):
            a = combinatorics.exact_ratio(alpha)
            for t in range(0, n - 1, 3):
                k_lo = math.ceil(Fraction(t) / a)
                k_hi = min(n, math.floor(n - t + Fraction(t) / a))
                for k in range(k_lo, k_hi + 1, 5):
                    for c in (1.3, 4.0):
                        diff = abs(
                            combinatorics.relaxed_log_cost(n, k, t, alpha, c, "entropy")
                            - combinatorics.relaxed_log_cost(n, k, t, alpha, c, "kl")
                        )
                        worst = max(worst, diff)
                        cases += 1
    checks.append(
        (
            "relaxed log-cost forms agree (<= 1e-9)",
            worst <= 1e-9,
            f"worst {worst:.2e} over {cases} cases",
        )
    )

    ok = True
    for n, k, alpha, c in [(12, 4, 1.0, 2.0), (15, 5, 1.5, 2.0), (10, 3, 2.0, 4.0)]:
        chosen = combinatorics.select_t(n, k, alpha, c)
        a = combinatorics.exact_ratio(alpha)
        for t in range(math.floor(a * k) + 1):
            if combinatorics.iteration_cost(n, k, t, alpha, c).log_cost < chosen.log_cost - 1e-12:
                ok = False
    checks.append(("selected sample size is the argmin", ok, ""))

    ok = (
        1 / combinatorics.hyper_tail(5, 2, 2, 2) == combinatorics.kappa(5, 2, 2, 2)
        and 1 / combinatorics.hyper_tail(7, 3, 3, 3) == combinatorics.kappa(7, 3, 3, 3)
    )
    checks.append(("kappa inverts the single-term tail", ok, ""))
    return checks


def _suite_families() -> list[Check]:
    checks: list[Check] = []
    params = [
        (4, 2, 2, 1, False),
        (5, 2, 2, 2, True),
        (6, 3, 3, 2, False),
        (7, 3, 4, 2, False),
        (8, 4, 4, 2, True),
        (9, 4, 3, 2, False),
    ]
    built = [families.build_intersection_family(n, p, q, r, strong) for n, p, q, r, strong in params]
    ok = all(families.verify_family(f) for f in built)
    checks.append(("intersection families verify exhaustively", ok, ""))

    ok = all(
        len(f.members) <= families.family_size_bound(f.n, *f.params)
        for f in built
        if f.kind == "intersection_weak"
    )
    checks.append(("greedy size within the guarantee", ok, ""))

    coverings = [families.build_covering(n, t, k) for n, t, k in [(4, 3, 2), (5, 3, 1), (6, 4, 2), (7, 7, 3)]]
    ok = all(families.verify_family(f) for f in coverings)
    checks.append(("coverings verify exhaustively", ok, ""))

    round_trip = all(
        families.family_from_text(families.family_to_text(f)).members == f.members
        for f in built + coverings
    )
    checks.append(("text serialization round-trips", round_trip, ""))
    return checks


def _suite_problems() -> list[Check]:
    checks: list[Check] = []

    ok = True
    for i in range(40):
        g = problems.gen_gnp(7, 0.35, seed=1000 + i)
        opt = engine.exhaustive_minimum(problems.vc_system(g))
        extend = problems.vc_exact_oracle(g).extend
        for k in range(g.n + 1):
            got = extend(frozenset(), k, None)
            if (got is not None) != (opt <= k):
                ok = False
            elif got is not None and not (
                len(got) <= k
                and all(u in got or v in got for u, v in g.edges)
            ):
                ok = False
    checks.append(("exact cover extension agrees with enumeration", ok, ""))

    ok = True
    for i in range(40):
        g = problems.gen_gnp(8, 0.3, seed=2000 + i)
        inst = problems.vc_system(g)
        got = problems.vc_matching_oracle(g).extend(frozenset(), g.n, None)
        if got is None or not inst.membership(got):
            ok = False
    checks.append(("matching endpoints always cover", ok, ""))

    ok = True
    import random as _random

    rng = _random.Random(3)
    for _ in range(60):
        g = problems.gen_gnp(8, 0.3, seed=rng.randrange(10**6))
        inst = problems.vc_system(g)
        small = frozenset(rng.sample(range(8), rng.randrange(9)))
        big = small | frozenset(rng.sample(range(8), rng.randrange(9)))
        if inst.membership(small) and not inst.membership(big):
            ok = False
    checks.append(("membership is monotone on random pairs", ok, ""))

    try:
        problems.parse_graph("p edge 3 1\ne 1 1\n")
        ok = False
    except problems.ParseError as exc:
        ok = exc.line_no == 2
    checks.append(("parser rejects loops with a line number", ok, ""))
    return checks


def _suite_engine() -> list[Check]:
    checks: list[Check] = []

    ok = True
    for i in range(30):
        g = problems.gen_gnp(8, 0.3, seed=4000 + i)
        inst = problems.vc_system(g)
        opt = engine.exhaustive_minimum(inst)
        rep = engine.run_deterministic(inst, problems.vc_exact_oracle(g))
        if rep.size != opt or not inst.membership(frozenset(rep.solution)):
            ok = False
        rep2 = engine.run_deterministic(inst, problems.vc_matching_oracle(g))
        if rep2.size > 2 * opt:
            ok = False
    checks.append(("deterministic mode: exact optimum / within twice", ok, ""))

    ok = True
    for i in range(20):
        g = problems.gen_gnp(8, 0.3, seed=5000 + i)
        inst = problems.vc_system(g)
        opt = engine.exhaustive_minimum(inst)
        for alpha in (1.0, 1.5, 2.0):
            rep = engine.brute_force_search(inst, alpha)
            if rep.size > math.floor(alpha * opt):
                ok = False
    checks.append(("covering brute force within floor(alpha * OPT)", ok, ""))

    g = problems.gen_gnp(10, 0.3, seed=71)
    inst = problems.vc_system(g)
    fraction = engine.success_rate(
        inst, problems.vc_exact_oracle(g), trials=60, cfg=engine.RunConfig(seed=11, boost=3.0)
    )
    checks.append(
        ("randomized mode: seeded success fraction >= 0.9", fraction >= 0.9, f"fraction {fraction:.3f}")
    )

    r1 = engine.run_randomized(inst, problems.vc_exact_oracle(g), engine.RunConfig(seed=5))
    r2 = engine.run_randomized(inst, problems.vc_exact_oracle(g), engine.RunConfig(seed=5))
    checks.append(("identical seeds give identical reports", r1.to_json() == r2.to_json(), ""))
    return checks


SUITES: dict[str, Callable[[], list[Check]]] = {
    "exponents": _suite_exponents,
    "combinatorics": _suite_combinatorics,
    "families": _suite_families,
    "problems": _suite_problems,
    "engine": _suite_engine,
}


def run_suite(name: str) -> list[Check]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()


def run_suites(name: str = "all") -> list[tuple[str, list[Check]]]:
    names = list(SUITES) if name == "all" else [name]
    return [(n, run_suite(n)) for n in names]
