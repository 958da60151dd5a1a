"""Family constructions against independent enumeration checks."""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from amls.combinatorics import hyper_tail, kappa
from amls.engine import RunConfig, brute_force_search, solve
from amls.families import (
    LIMIT,
    LimitExceededError,
    SetFamily,
    build_covering,
    build_intersection_family,
    family_size_bound,
    family_to_text,
    verify_family,
)
from amls.problems import gen_gnp, vc_exact_oracle, vc_system


def weak_ok(n, p, r, members) -> bool:
    return all(
        any(len(set(target) & set(m)) >= r for m in members)
        for target in combinations(range(n), p)
    )


def strong_ok(n, p, r, members) -> bool:
    return all(
        any(len(set(target) & set(m)) == r for m in members)
        for target in combinations(range(n), p)
    )


def covering_ok(n, k, members) -> bool:
    return all(
        any(set(target) <= set(m) for m in members)
        for target in combinations(range(n), k)
    )


INTERSECTION_PARAMS = [
    (4, 2, 2, 1, False),
    (4, 2, 2, 1, True),
    (5, 2, 2, 2, False),
    (5, 2, 2, 2, True),
    (6, 3, 3, 2, False),
    (7, 3, 4, 2, False),
    (8, 4, 4, 2, True),
    (9, 4, 3, 2, False),
    (10, 5, 4, 2, False),
    (11, 4, 5, 3, True),
    (12, 6, 5, 3, False),
]

COVERING_PARAMS = [(4, 3, 2), (5, 3, 1), (5, 4, 2), (6, 4, 2), (7, 7, 3),
                   (8, 5, 3), (10, 6, 2), (12, 12, 4), (12, 7, 3)]


def reference_greedy(n, target_size, member_size, serves):
    """Greedy set cover that recounts every candidate's score each round.

    Ties go to the first candidate in lexicographic order.
    """
    targets = list(combinations(range(n), target_size))
    candidates = list(combinations(range(n), member_size))
    served = [
        {i for i, target in enumerate(targets) if serves(set(target), set(cand))}
        for cand in candidates
    ]
    uncovered = set(range(len(targets)))
    picked = []
    while uncovered:
        scores = [len(s & uncovered) for s in served]
        best = scores.index(max(scores))
        assert scores[best] > 0
        picked.append(candidates[best])
        uncovered -= served[best]
    return tuple(picked)


def valid_intersection_params(n):
    for p in range(1, n + 1):
        for r in range(1, p + 1):
            for q in range(r, n - p + r + 1):
                yield p, q, r


# The families `amls brute --alpha 1.5` (coverings (14, floor(1.5 k), k) for
# k = 0..9) and `amls solve --deterministic` (weak (14, p, q, r) families;
# c = 2 for vertex cover, then c = 3 for 3-hitting set) build at n = 14.
BENCHMARK_COVERINGS_14 = [((3 * k) // 2, k) for k in range(10)]
BENCHMARK_WEAK_14 = [
    (8, 2, 2), (9, 4, 4), (10, 6, 6), (11, 8, 8), (12, 10, 10), (13, 12, 12),
    (14, 14, 14),
    (5, 1, 1), (6, 2, 2), (7, 4, 4), (8, 5, 5), (9, 7, 7), (10, 8, 8),
    (11, 10, 10), (12, 11, 11), (13, 13, 13), (14, 14, 14),
]
BENCHMARK_DIGEST_14 = "2cd61303402e16c3a44892b79a09b69ea1348b83123c899ac764c38eb0d56910"

# Heavier families outside the benchmark: weak with r < q, strong, and
# coverings at n = 12..14, pinned as the numpy coverage-matrix greedy built them.
HEAVY_INTERSECTION = [
    (14, 7, 7, 3, False), (14, 7, 7, 3, True), (14, 6, 8, 4, False),
    (14, 6, 8, 3, True), (14, 5, 9, 3, False), (12, 6, 6, 2, True),
    (13, 6, 7, 3, False), (14, 4, 10, 3, False),
]
HEAVY_COVERINGS = [(14, 8, 4), (14, 7, 3), (13, 7, 5)]
HEAVY_DIGEST = "298cdb926c8be1326b06b241baedc821af978c9f9bba2c82ed1f339a2fbd872d"


class TestIntersectionFamilies:
    def test_small_weak_family_is_optimal(self):
        family = build_intersection_family(4, 2, 2, 1)
        assert len(family.members) == 2
        assert weak_ok(4, 2, 1, family.members)

    def test_full_universe_member(self):
        # q = n is inside the allowed range only when r = p
        family = build_intersection_family(6, 3, 6, 3)
        assert family.members == ((0, 1, 2, 3, 4, 5),)
        assert weak_ok(6, 3, 3, family.members)

    def test_strong_equality_forces_all_pairs(self):
        family = build_intersection_family(5, 2, 2, 2, strong=True)
        assert len(family.members) == 10
        assert strong_ok(5, 2, 2, family.members)

    @pytest.mark.parametrize("n,p,q,r,strong", INTERSECTION_PARAMS)
    def test_constructions_are_valid(self, n, p, q, r, strong):
        family = build_intersection_family(n, p, q, r, strong=strong)
        checker = strong_ok if strong else weak_ok
        assert checker(n, p, r, family.members)
        assert all(len(m) == q for m in family.members)
        assert verify_family(family)

    @pytest.mark.parametrize("n,p,q,r,strong", INTERSECTION_PARAMS)
    def test_greedy_respects_size_bound(self, n, p, q, r, strong):
        family = build_intersection_family(n, p, q, r, strong=strong)
        assert len(family.members) <= family_size_bound(n, p, q, r)

    def test_strong_families_are_weak(self):
        for n, p, q, r in [(6, 3, 3, 2), (8, 4, 4, 2), (7, 3, 4, 2)]:
            strong = build_intersection_family(n, p, q, r, strong=True)
            assert weak_ok(n, p, r, strong.members)

    def test_r_equals_q_is_a_reverse_covering(self):
        # members X with |T cap X| >= q=|X| are exactly the X contained in T,
        # i.e. complements form a covering of the complements
        family = build_intersection_family(6, 4, 3, 3)
        universe = set(range(6))
        complements = [tuple(sorted(universe - set(m))) for m in family.members]
        assert covering_ok(6, 6 - 4, complements)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_intersection_family(4, 5, 2, 1)
        with pytest.raises(ValueError):
            build_intersection_family(6, 3, 5, 1)  # q > n - p + r
        with pytest.raises(ValueError):
            build_intersection_family(4, 2, 2, 0)
        with pytest.raises(LimitExceededError):
            build_intersection_family(15, 3, 3, 2)


class TestCoverings:
    def test_4_3_2_needs_three_members(self):
        family = build_covering(4, 3, 2)
        assert len(family.members) == 3
        assert covering_ok(4, 2, family.members)
        # exhaustively: no two 3-subsets of [4] cover all six pairs
        triples = list(combinations(range(4), 3))
        assert not any(
            covering_ok(4, 2, [a, b]) for a, b in combinations(triples, 2)
        )

    def test_full_set_degenerate(self):
        family = build_covering(6, 6, 3)
        assert family.members == ((0, 1, 2, 3, 4, 5),)

    def test_all_subsets_degenerate(self):
        family = build_covering(5, 2, 2)
        assert family.members == tuple(combinations(range(5), 2))

    def test_singletons_need_two_triples(self):
        family = build_covering(5, 3, 1)
        assert len(family.members) == 2
        assert covering_ok(5, 1, family.members)

    @pytest.mark.parametrize("n,t,k", COVERING_PARAMS)
    def test_constructions_are_valid(self, n, t, k):
        family = build_covering(n, t, k)
        assert covering_ok(n, k, family.members)
        assert all(len(m) == t for m in family.members)
        assert verify_family(family)

    def test_zero_subset_targets(self):
        # the empty set is contained in any member: one suffices
        family = build_covering(5, 3, 0)
        assert family.members == ((0, 1, 2),)
        assert build_covering(6, 0, 0).members == ((),)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_covering(4, 2, 3)  # k > t
        with pytest.raises(LimitExceededError):
            build_covering(20, 10, 3)


class TestGoldenGreedy:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_intersection_members_match_reference(self, n):
        for p, q, r in valid_intersection_params(n):
            weak = reference_greedy(n, p, q, lambda t, x: len(t & x) >= r)
            strong = reference_greedy(n, p, q, lambda t, x: len(t & x) == r)
            assert build_intersection_family(n, p, q, r).members == weak, (p, q, r)
            assert (
                build_intersection_family(n, p, q, r, strong=True).members == strong
            ), (p, q, r)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_covering_members_match_reference(self, n):
        for t in range(n + 1):
            for k in range(t + 1):
                expected = reference_greedy(n, k, t, lambda target, x: target <= x)
                assert build_covering(n, t, k).members == expected, (t, k)

    def test_benchmark_families_are_pinned(self):
        families = [build_covering(14, t, k) for t, k in BENCHMARK_COVERINGS_14]
        families += [build_intersection_family(14, *pqr) for pqr in BENCHMARK_WEAK_14]
        assert sum(len(f.members) for f in families) == 1345
        text = "".join(family_to_text(f) for f in families)
        assert hashlib.sha256(text.encode()).hexdigest() == BENCHMARK_DIGEST_14

    def test_heavy_families_are_pinned(self):
        families = [
            build_intersection_family(n, p, q, r, strong=strong)
            for n, p, q, r, strong in HEAVY_INTERSECTION
        ]
        families += [build_covering(n, t, k) for n, t, k in HEAVY_COVERINGS]
        assert sum(len(f.members) for f in families) == 200
        text = "".join(family_to_text(f) for f in families)
        assert hashlib.sha256(text.encode()).hexdigest() == HEAVY_DIGEST


class TestLimits:
    def test_largest_construction_builds(self):
        # C(14, 7) targets by C(14, 7) candidates: the most the limit admits
        assert LIMIT == 14
        family = build_intersection_family(14, 7, 7, 3, strong=True)
        assert verify_family(family)
        assert verify_family(build_covering(14, 8, 7))

    def test_default_limit_still_gates(self):
        with pytest.raises(LimitExceededError):
            build_covering(15, 3, 2)

    def test_one_limit_gates_every_search(self):
        g = gen_gnp(15, 0.2, seed=1)
        calls = [
            lambda: build_intersection_family(15, 2, 2, 1),
            lambda: build_covering(15, 2, 1),
            lambda: verify_family(
                SetFamily(n=15, member_size=15, members=(tuple(range(15)),),
                          kind="covering", params=(15, 1))
            ),
            lambda: solve(vc_system(g), vc_exact_oracle(g), RunConfig(deterministic=True)),
            lambda: brute_force_search(vc_system(g), 2),
        ]
        for call in calls:
            with pytest.raises(LimitExceededError, match=r"limited to n <= 14, got n=15$"):
                call()

    def test_limit_error_is_a_runtime_and_a_value_error(self):
        # the CLI reports ValueErrors with exit 2, without loading families
        assert issubclass(LimitExceededError, RuntimeError)
        assert issubclass(LimitExceededError, ValueError)


class TestVerifyFamily:
    def test_accepts_valid(self):
        family = build_intersection_family(4, 2, 2, 1)
        assert verify_family(family)

    def test_rejects_incomplete(self):
        bad = SetFamily(
            n=4, member_size=2, members=((0, 1),), kind="intersection_weak",
            params=(2, 2, 1),
        )
        assert not verify_family(bad)

    def test_rejects_malformed_members(self):
        bad = SetFamily(
            n=4, member_size=2, members=((0, 5),), kind="covering", params=(2, 1),
        )
        assert not verify_family(bad)

    def test_limit(self):
        big = SetFamily(
            n=17, member_size=1, members=((0,),), kind="covering", params=(1, 0),
        )
        with pytest.raises(LimitExceededError):
            verify_family(big)


class TestSizeBound:
    def test_reference_value(self):
        # kappa = 3/2, bound = 1.5 * 3 * ln(4) * (1 + ln 6)
        import math

        expected = 1.5 * 3 * math.log(4) * (1 + math.log(6))
        assert family_size_bound(4, 2, 2, 1) == pytest.approx(expected, rel=1e-12)

    def test_kappa_reciprocal_identity(self):
        assert kappa(5, 2, 2, 2) == 1 / hyper_tail(5, 2, 2, 2)
        assert Fraction(1) / kappa(8, 3, 4, 2) == hyper_tail(8, 3, 4, 2) - hyper_tail(
            8, 3, 4, 3
        )


def _read_back(text):
    """(header, members) of family_to_text's output, each member line as ints."""
    assert text.endswith("\n")
    header, *rows = text[:-1].split("\n")
    return header, tuple(tuple(int(v) for v in row.split(" ")) for row in rows)


class TestSerialization:
    @pytest.mark.parametrize("n,t,k", COVERING_PARAMS)
    def test_covering_round_trip_is_bit_exact(self, n, t, k):
        family = build_covering(n, t, k)
        header, members = _read_back(family_to_text(family))
        assert header == f"family covering n={n} q={t} params={t},{k}"
        assert members == family.members

    def test_intersection_round_trip(self):
        for n, p, q, r, strong in [(7, 3, 4, 2, True), *INTERSECTION_PARAMS]:
            family = build_intersection_family(n, p, q, r, strong=strong)
            header, members = _read_back(family_to_text(family))
            assert header == f"family {family.kind} n={n} q={q} params={p},{q},{r}"
            assert members == family.members

    def test_header_format(self):
        family = build_covering(4, 3, 2)
        first = family_to_text(family).splitlines()[0]
        assert first == "family covering n=4 q=3 params=3,2"

    def test_members_are_printed_sorted(self):
        family = SetFamily(n=5, member_size=3, members=((4, 0, 2), (3, 1, 0)),
                           kind="covering", params=(3, 2))
        assert family_to_text(family) == "family covering n=5 q=3 params=3,2\n0 2 4\n0 1 3\n"
