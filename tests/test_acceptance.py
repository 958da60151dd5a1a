"""Acceptance gate: every shipped guarantee at its stated tolerance.

One criterion per test; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live).  Tolerances are
pinned here and nowhere else.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations

from amls.bounds import amls_bound, brute_bound, emls_bound, naive_bound
from amls.combinatorics import select_t
from amls.engine import RunConfig, brute_force_search, solve
from amls.families import build_covering, build_intersection_family, verify_family
from amls.problems import (
    Hypergraph3,
    gen_gnp,
    hs3_exact_oracle,
    hs3_system,
    vc_exact_oracle,
    vc_matching_oracle,
    vc_system,
)
from conftest import exhaustive_hs_opt, exhaustive_vc_opt
from reference import (
    decimal_ratio,
    empirical_brute_exponent,
    family_size_range,
    hyper_tail,
    relaxed_log_cost,
)

ALPHA_GRID = [1 + i / 10 for i in range(21)]
C_GRID = [1.01, 1.1, 2.0, 10.0, 1024.0]


def _report(criterion: str, violations: list) -> None:
    status = "PASS" if not violations else "FAIL"
    detail = "" if not violations else f"  [{len(violations)} violation(s), first: {violations[0]}]"
    print(f"ACCEPTANCE {criterion}: {status}{detail}")
    assert not violations, f"{criterion}: {violations[:5]}"


def test_criterion_1_exponent_reproduction():
    v = []
    for c in (1.1, 2.0, 10.0, 1024.0):
        if abs(amls_bound(1, c) - (2 - 1 / c)) > 1e-9:
            v.append(f"alpha=1 collapse at c={c}")
    if abs(amls_bound(2, 1024) - 1.2498) > 1e-3:
        v.append("amls(2,1024) vs 1.2498")
    if abs(amls_bound(1.1, 1.1652) - 1.114) > 1e-3:
        v.append("amls(1.1,1.1652) vs 1.114")
    if brute_bound(2) != 1.25:
        v.append("brute(2) not exactly 1.25")
    if abs(brute_bound(1.1) - 1.716) > 1e-3:
        v.append("brute(1.1) vs 1.716")
    if abs(naive_bound(1.1, 1.1652) - 1.149) > 1e-3:
        v.append("naive(1.1,1.1652) vs 1.149")
    if abs(emls_bound(1.1652) - 1.1417) > 1e-3:
        v.append("emls(1.1652) vs 1.1417")
    if abs(emls_bound(1024) - 1.9990) > 2e-4:
        v.append("emls(1024) vs 1.9990")
    _report("1 exponent-reproduction", v)


def test_criterion_1b_randomized_exponent_tends_to_gamma():
    # exp(max_k log_cost / n) over select_t's rows k <= n/alpha approaches
    # amls_bound(alpha, c) as n grows (from below at alpha = 1)
    v = []
    for alpha, c in [(1.5, 2.0), (2.0, 3.0), (1.0, 2.0)]:
        gamma = amls_bound(alpha, c)
        gaps = []
        for n in (20, 100, 400):
            rows = range(math.floor(n / alpha) + 1)
            worst = max(select_t(n, k, alpha, c).log_cost for k in rows)
            gaps.append(abs(math.exp(worst / n) - gamma))
        if not gaps[0] > gaps[1] > gaps[2]:
            v.append(f"({alpha},{c}): gaps to gamma {gaps} at n = 20, 100, 400 do not shrink")
    _report("1b randomized-exponent", v)


def test_criterion_2_bound_properties_on_grid():
    v = []
    for alpha in ALPHA_GRID:
        for c in C_GRID:
            gamma = amls_bound(alpha, c)
            if not gamma < min(brute_bound(alpha), naive_bound(alpha, c)):
                v.append(f"dominance at ({alpha},{c})")
            if alpha > 1.0 and not gamma < emls_bound(c):
                v.append(f"emls dominance at ({alpha},{c})")
            if not gamma < alpha * c / (1 + (alpha - 1) * c):
                v.append(f"upper bound at ({alpha},{c})")
    for alpha in ALPHA_GRID:
        values = [amls_bound(alpha, c) for c in C_GRID]
        if not all(x < y for x, y in zip(values, values[1:])):
            v.append(f"monotonicity in c at alpha={alpha}")
    for c in C_GRID:
        values = [amls_bound(alpha, c) for alpha in ALPHA_GRID]
        if not all(x > y for x, y in zip(values, values[1:])):
            v.append(f"monotonicity in alpha at c={c}")
    for alpha in (1.1, 1.5, 2.0, 3.0):
        if abs(amls_bound(alpha, 1e9) - brute_bound(alpha)) > 1e-3:
            v.append(f"convergence at alpha={alpha}")
    _report("2 bound-properties-grid", v)


def test_criterion_3_combinatorics_oracles():
    # the reference tail, and select_t's own p at the t it picks, against
    # enumerated tails
    v = []
    tails = {}  # (n, k, t, x) -> the enumerated Pr(|X cap [k]| >= x)
    for n in range(13):
        for k in range(n + 1):
            for t in range(n + 1):
                target = set(range(k))
                counts: dict[int, int] = {}
                for combo in combinations(range(n), t):
                    hits = len(target.intersection(combo))
                    counts[hits] = counts.get(hits, 0) + 1
                total = math.comb(n, t)
                for x in range(n + 2):
                    expected = Fraction(
                        sum(cnt for h, cnt in counts.items() if h >= x), total
                    )
                    tails[n, k, t, x] = expected
                    if hyper_tail(n, k, t, x) != expected:
                        v.append(f"tail mismatch at ({n},{k},{t},{x})")
                for x in range(min(k, t) + 1):
                    if hyper_tail(n, k, t, x) != hyper_tail(n, t, k, x):
                        v.append(f"symmetry fails at ({n},{k},{t},{x})")
        for alpha in (1, 1.5, 2):
            a = decimal_ratio(alpha)
            for k in range(math.floor(n / a) + 1):
                for c in (2, 3):
                    cost = select_t(n, k, alpha, c)
                    if cost.p != tails[n, k, cost.t, math.ceil(cost.t / a)]:
                        v.append(f"select_t p mismatch at ({n},{k},{alpha},{c})")

    rng = random.Random(424242)
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
        diff = abs(
            relaxed_log_cost(n, k, t, alpha, c, "entropy")
            - relaxed_log_cost(n, k, t, alpha, c, "kl")
        )
        if diff > 1e-9:
            v.append(f"two-form gap {diff:.2e} at ({n},{k},{t},{alpha},{c:.3f})")
        cases += 1

    for alpha in (1, 1.5, 2):
        gap = abs(empirical_brute_exponent(400, alpha) - math.log(brute_bound(alpha)))
        if gap > 0.02:
            v.append(f"empirical exponent gap {gap:.4f} at alpha={alpha}")
    _report("3 combinatorics-oracles", v)


def test_criterion_3b_sampling_lemma_holds_exactly():
    # At k = OPT, the share of all C(n, t) t-subsets X on which the exact
    # oracle's Y hits (X u Y a member with at most floor(alpha*OPT) elements)
    # is at least select_t's p: an optimum that meets X in ceil(t/alpha)
    # elements fits the budget left.  Where only those X hit, the share is
    # p: an overestimated p fails there, an underestimated one the pinned
    # count of equalities.
    v = []
    cases = []
    for seed in range(6):
        g = gen_gnp(14, 0.3, seed=seed)
        cases.append((vc_system(g), vc_exact_oracle(g), exhaustive_vc_opt(g)))
        rng = random.Random(seed)  # 25 draws of three elements; repeats merge
        h = Hypergraph3(13, tuple(tuple(rng.sample(range(13), 3)) for _ in range(25)))
        cases.append((hs3_system(h), hs3_exact_oracle(h), exhaustive_hs_opt(h)))
    feasible = equal = 0
    for inst, oracle, opt in cases:
        for alpha in (1, 1.5, 2):
            a = decimal_ratio(alpha)
            if opt > inst.n / a:  # select_t takes k <= n/alpha
                continue
            cost = select_t(inst.n, opt, alpha, oracle.c)
            budget, limit = opt - math.ceil(cost.t / a), math.floor(a * opt)
            hits = 0
            for combo in combinations(range(inst.n), cost.t):
                x = frozenset(combo)
                y = oracle.extend(x, budget, None)
                hits += y is not None and len(x | y) <= limit and inst.membership(x | y)
            share = Fraction(hits, math.comb(inst.n, cost.t))
            feasible += 1
            equal += share == cost.p
            if share < cost.p:
                v.append(f"{inst.label} at alpha={alpha}: hit share {share} < p = {cost.p}")
    if (feasible, equal) != (34, 8):
        v.append(f"{feasible} cases with {equal} equalities, expected 34 with 8")
    _report("3b sampling-lemma", v)


def _acceptance_graphs():
    graphs = []
    i = 0
    while len(graphs) < 200:
        n = 4 + i % 7  # sizes 4..10
        p = (0.25, 0.4, 0.55)[i % 3]
        graphs.append(gen_gnp(n, p, seed=90000 + i))
        i += 1
    return graphs


def test_criterion_4a_deterministic_engine():
    v = []
    for idx, g in enumerate(_acceptance_graphs()):
        inst = vc_system(g)
        opt = exhaustive_vc_opt(g)
        exact = solve(inst, vc_exact_oracle(g), RunConfig(deterministic=True))
        if exact.size != opt:
            v.append(f"graph {idx}: exact mode size {exact.size} != OPT {opt}")
        if not inst.membership(frozenset(exact.solution)):
            v.append(f"graph {idx}: exact-mode output not a member")
        twice = solve(inst, vc_matching_oracle(g), RunConfig(deterministic=True))
        if twice.size > 2 * opt:
            v.append(f"graph {idx}: matching mode size {twice.size} > 2*OPT {2 * opt}")
    _report("4a deterministic-engine", v)


def test_criterion_4b_randomized_success_rate():
    v = []
    start = time.perf_counter()
    trials_per_graph = 100
    successes = 0
    total = 0
    for n, p, seed in ((12, 0.55, 111), (14, 0.5, 222), (16, 0.45, 333)):
        g = gen_gnp(n, p, seed=seed)
        inst = vc_system(g)
        oracle = vc_exact_oracle(g)
        opt = exhaustive_vc_opt(g)
        for i in range(trials_per_graph):
            rep = solve(inst, oracle, RunConfig(seed=seed * 1000 + i, boost=3.0))
            total += 1
            if rep.size <= opt:
                successes += 1
    elapsed = time.perf_counter() - start
    fraction = successes / total
    if fraction < 0.9:
        v.append(f"success fraction {fraction:.3f} < 0.9 over {total} trials")
    if elapsed > 300:
        v.append(f"runtime {elapsed:.1f}s exceeds 5 minutes")
    _report("4b randomized-success-rate", v)


def test_criterion_4c_covering_brute_force():
    v = []
    for idx, g in enumerate(_acceptance_graphs()[:100]):
        inst = vc_system(g)
        opt = exhaustive_vc_opt(g)
        for alpha in (1, 1.5, 2):
            rep = brute_force_search(inst, alpha)
            if rep.size > math.floor(alpha * opt):
                v.append(
                    f"graph {idx}, alpha={alpha}: size {rep.size} > floor(alpha*OPT) "
                    f"{math.floor(alpha * opt)}"
                )
    _report("4c covering-brute-force", v)


def test_criterion_5_families():
    v = []
    intersection_params = [
        (4, 2, 2, 1, False), (5, 2, 2, 2, True), (6, 3, 3, 2, False),
        (7, 3, 4, 2, False), (8, 4, 4, 2, True), (9, 4, 3, 2, False),
        (10, 5, 4, 2, False), (11, 4, 5, 3, True), (12, 6, 5, 3, False),
        (12, 5, 6, 2, False),
    ]
    for n, p, q, r, strong in intersection_params:
        family = build_intersection_family(n, p, q, r, strong=strong)
        if not verify_family(family):
            v.append(f"intersection ({n},{p},{q},{r},strong={strong}) fails verification")
    # every weak and strong family with n <= 12 lies between its LP value's
    # ceiling and greedy's H(M) times the LP value, in exact arithmetic
    for n in range(1, 13):
        for p in range(1, n + 1):
            for r in range(1, p + 1):
                for q in range(r, n - p + r + 1):
                    for strong in (False, True):
                        low, high = family_size_range(n, p, q, r, strong)
                        size = len(build_intersection_family(n, p, q, r, strong).members)
                        if not low <= size <= high:
                            v.append(f"intersection ({n},{p},{q},{r},strong={strong}) has "
                                     f"{size} members, outside [{low}, {float(high):.4g}]")
    for n, t, k in [(4, 3, 2), (5, 3, 1), (6, 4, 2), (8, 5, 3), (10, 6, 2), (12, 7, 3)]:
        if not verify_family(build_covering(n, t, k)):
            v.append(f"covering ({n},{t},{k}) fails verification")
    if len(build_covering(4, 3, 2).members) != 3:
        v.append("(4,3,2)-covering size != 3")
    if len(build_intersection_family(4, 2, 2, 1).members) > 3:
        v.append("(4,2,2,1) weak family larger than 3")
    _report("5 families", v)


def test_criterion_6_reproducibility():
    v = []
    g = gen_gnp(12, 0.45, seed=77)
    inst = vc_system(g)
    cfg = RunConfig(seed=5)
    r1 = solve(inst, vc_exact_oracle(g), cfg)
    r2 = solve(inst, vc_exact_oracle(g), cfg)
    if r1.to_json().encode() != r2.to_json().encode():
        v.append("randomized reports differ")
    det1 = solve(inst, vc_exact_oracle(g), RunConfig(deterministic=True))
    det2 = solve(inst, vc_exact_oracle(g), RunConfig(deterministic=True))
    if det1.to_json().encode() != det2.to_json().encode():
        v.append("deterministic reports differ")
    payload = json.loads(det1.to_json())
    if payload["size"] != exhaustive_vc_opt(g):
        v.append("deterministic size disagrees with enumeration")
    _report("6 reproducibility", v)
