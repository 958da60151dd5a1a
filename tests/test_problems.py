"""Problem plugins: systems, oracles, parsers, generators."""

import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

import amls
from amls.problems import (
    Graph,
    Hypergraph3,
    ParseError,
    gen_gnp,
    hs3_exact_oracle,
    hs3_system,
    parse_graph,
    parse_hypergraph,
    vc_exact_oracle,
    vc_matching_oracle,
    vc_system,
)
from conftest import exhaustive_vc_exists, hits_all, is_cover

P3 = Graph(3, ((0, 1), (1, 2)))
K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))


class TestGraphType:
    def test_normalizes_and_deduplicates(self):
        g = Graph(4, ((2, 1), (1, 2), (0, 3)))
        assert g.edges == ((1, 2), (0, 3))
        # _replace builds through the constructor too
        assert g._replace(edges=((3, 0), (0, 3))).edges == ((0, 3),)
        assert Hypergraph3(3, ((0, 1, 2),))._replace(sets=((2, 0), (0, 2))).sets == ((0, 2),)

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),))
        with pytest.raises(ValueError):
            Graph(3, ((0, 3),))

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: Graph(3, ((0, 3),)), "edge (0, 3) must have 2 distinct elements in [0, 3)"),
            (lambda: Graph(3, ((2, -1),)), "edge (2, -1) must have 2 distinct elements in [0, 3)"),
            (lambda: Graph(3, ((1, 1),)), "edge (1, 1) must have 2 distinct elements in [0, 3)"),
            (lambda: Graph(3, ((0, 1, 2),)),
             "edge (0, 1, 2) must have 2 distinct elements in [0, 3)"),
            (lambda: Hypergraph3(4, ((4, 0, 1),)),
             "set (4, 0, 1) must have 1/2/3 distinct elements in [0, 4)"),
            (lambda: Hypergraph3(4, ((1, -1),)),
             "set (1, -1) must have 1/2/3 distinct elements in [0, 4)"),
            (lambda: Hypergraph3(4, ((),)), "set () must have 1/2/3 distinct elements in [0, 4)"),
            (lambda: Graph(-1, ()), "universe size must be >= 0, got -1"),
            (lambda: Graph(3, ((0, 1),))._replace(edges=((1, 0), (1, 0), (2, 7))),
             "edge (2, 7) must have 2 distinct elements in [0, 3)"),
            (lambda: Graph(3, ((0, 1),))._replace(n=1),
             "edge (0, 1) must have 2 distinct elements in [0, 1)"),
            (lambda: Hypergraph3(3, ((0, 1, 2),))._replace(sets=((2, 2),)),
             "set (2, 2) must have 1/2/3 distinct elements in [0, 3)"),
        ],
    )
    def test_range_errors_keep_their_messages(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


class TestVcSystem:
    def test_membership_examples(self):
        inst = vc_system(P3)
        assert inst.membership(frozenset({1}))
        assert not inst.membership(frozenset({0}))
        assert inst.membership(frozenset({0, 1, 2}))

    def test_monotonicity_spot_check(self):
        rng = random.Random(99)
        for _ in range(100):
            g = gen_gnp(8, 0.35, seed=rng.randrange(10**6))
            inst = vc_system(g)
            small = frozenset(rng.sample(range(8), rng.randrange(0, 9)))
            extra = frozenset(rng.sample(range(8), rng.randrange(0, 9)))
            if inst.membership(small):
                assert inst.membership(small | extra)


class TestVcExactExtension:
    def test_path(self):
        assert vc_exact_oracle(P3).extend(frozenset(), 1, None) == frozenset({1})

    def test_triangle_hopeless(self):
        assert vc_exact_oracle(K3).extend(frozenset(), 1, None) is None

    def test_triangle_partial(self):
        assert vc_exact_oracle(K3).extend(frozenset({0}), 1, None) == frozenset({1})

    def test_agrees_with_enumeration(self):
        rng = random.Random(5)
        for i in range(200):
            g = gen_gnp(rng.randrange(4, 10), 0.4, seed=i)
            x = frozenset(rng.sample(range(g.n), rng.randrange(0, g.n + 1)))
            k = rng.randrange(0, g.n + 1)
            got = vc_exact_oracle(g).extend(x, k, None)
            feasible = exhaustive_vc_exists(g, x, k)
            assert (got is not None) == feasible
            if got is not None:
                surviving = [e for e in g.edges if e[0] not in x and e[1] not in x]
                assert len(got) <= k
                assert is_cover(surviving, got)


def reference_vc_extend_matching(g, x, k):
    # the matching oracle as written before it stopped at k + 1 edges
    if k < 0:
        return None
    matched = set()
    size = 0
    for u, v in g.edges:
        if u in x or v in x or u in matched or v in matched:
            continue
        matched.update((u, v))
        size += 1
    if size > k:
        return None
    return frozenset(matched)


class TestVcMatchingExtension:
    def test_early_exit_matches_full_scan(self):
        rng = random.Random(13)
        for i in range(60):
            g = gen_gnp(rng.randint(2, 40), rng.uniform(0.05, 0.5), seed=2000 + i)
            x = frozenset(rng.sample(range(g.n), rng.randint(0, g.n // 3)))
            for k in range(-1, g.n + 1):
                # a fresh oracle per call, so every answer is a full scan
                got = vc_matching_oracle(g).extend(x, k, None)
                assert got == reference_vc_extend_matching(g, x, k), (i, k)

    def test_oracle_memo_matches_full_scan(self):
        # one oracle per graph answers an interleaved X sequence, so each
        # answer comes from a fresh scan or from the last X's matching
        rng = random.Random(17)
        xs = [frozenset(), frozenset(), frozenset({0}), frozenset(),
              frozenset({0, 3}), frozenset({0, 3})]
        for i in range(60):
            g = gen_gnp(rng.randint(4, 40), rng.uniform(0.05, 0.5), seed=3000 + i)
            extend = vc_matching_oracle(g).extend
            for x in xs:
                for k in range(-1, g.n + 1):
                    assert extend(x, k, None) == reference_vc_extend_matching(
                        g, x, k
                    ), (i, sorted(x), k)

    def test_oracles_do_not_share_a_memo(self):
        path = Graph(4, ((0, 1), (1, 2), (2, 3)))
        star = Graph(4, ((0, 1), (0, 2), (0, 3)))
        on_path, on_star = vc_matching_oracle(path).extend, vc_matching_oracle(star).extend
        assert on_path(frozenset(), 2, None) == frozenset({0, 1, 2, 3})
        assert on_star(frozenset(), 2, None) == frozenset({0, 1})
        assert on_path(frozenset(), 2, None) == frozenset({0, 1, 2, 3})
        assert on_star(frozenset(), 0, None) is None
        assert on_path(frozenset(), 1, None) is None

    def test_triangle(self):
        assert vc_matching_oracle(K3).extend(frozenset(), 1, None) == frozenset({0, 1})
        assert vc_matching_oracle(K3).extend(frozenset(), 0, None) is None

    def test_edgeless(self):
        g = Graph(4, ())
        assert vc_matching_oracle(g).extend(frozenset(), 0, None) == frozenset()

    def test_contract_on_random_graphs(self):
        rng = random.Random(6)
        for i in range(100):
            g = gen_gnp(rng.randrange(4, 10), 0.4, seed=1000 + i)
            x = frozenset(rng.sample(range(g.n), rng.randrange(0, g.n + 1)))
            k = rng.randrange(0, g.n + 1)
            got = vc_matching_oracle(g).extend(x, k, None)
            surviving = [e for e in g.edges if e[0] not in x and e[1] not in x]
            if got is None:
                # maximal matching size <= OPT, so refusal proves OPT > k
                assert not exhaustive_vc_exists(g, x, k)
            else:
                assert len(got) <= 2 * k
                assert is_cover(surviving, got)


class TestHs3:
    def test_membership(self):
        h = Hypergraph3(3, ((0, 1, 2),))
        inst = hs3_system(h)
        assert inst.membership(frozenset({2}))
        assert not inst.membership(frozenset())
        h2 = Hypergraph3(3, ((0, 1), (2,)))
        assert not hs3_system(h2).membership(frozenset({0}))

    def test_extension_examples(self):
        h = Hypergraph3(3, ((0, 1, 2),))
        assert hs3_exact_oracle(h).extend(frozenset(), 1, None) == frozenset({0})
        h2 = Hypergraph3(2, ((0,), (1,)))
        assert hs3_exact_oracle(h2).extend(frozenset(), 1, None) is None
        assert hs3_exact_oracle(h2).extend(frozenset({0}), 1, None) == frozenset({1})

    def test_agrees_with_enumeration(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randrange(3, 9)
            sets = tuple(
                tuple(sorted(rng.sample(range(n), rng.choice((1, 2, 3)))))
                for _ in range(rng.randrange(1, 13))
            )
            h = Hypergraph3(n, sets)
            k = rng.randrange(0, n + 1)
            got = hs3_exact_oracle(h).extend(frozenset(), k, None)
            feasible = any(
                hits_all(h.sets, set(c))
                for size in range(k + 1)
                for c in combinations(range(n), size)
            )
            assert (got is not None) == feasible
            if got is not None:
                assert len(got) <= k
                assert hits_all(h.sets, got)

    def test_rejects_bad_sets(self):
        with pytest.raises(ValueError):
            Hypergraph3(5, ((0, 1, 2, 3),))
        with pytest.raises(ValueError):
            Hypergraph3(5, ((1, 1),))


class TestGraphParser:
    def test_path_example(self):
        g = parse_graph("p edge 3 2\ne 1 2\ne 2 3\n")
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_comments_and_blank_lines(self):
        g = parse_graph("c a comment\n\np edge 2 1\nc another\ne 1 2\n")
        assert g.edges == ((0, 1),)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("p edge 2 1\ne 1 3\n", 2),          # vertex out of range
            ("p edge 2 1\ne 1 1\n", 2),          # loop
            ("p edge 2 1\ne 1\n", 2),            # wrong arity
            ("e 1 2\np edge 2 1\n", 1),          # edge before header
            ("p edge 2 1\np edge 2 1\ne 1 2\n", 2),  # duplicate header
            ("p edge x 1\ne 1 2\n", 1),          # non-integer count
            ("p edge 2 1\nq 1 2\n", 2),          # unknown tag
            ("c one\nc two\np edge 3 2\ne 1 2\n", 3),  # count mismatch: the header's line
        ],
    )
    def test_rejects_malformed_with_line_numbers(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.line_no == line
        assert f"line {line}:" in str(err.value)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p edge 2 1\ne 3 x\n", "line 2: vertex 3 outside 1..2"),
            ("p edge 2 1\ne x 3\n", "line 2: non-integer vertex 'x'"),
            ("p edge 2 1\ne 1 0\n", "line 2: vertex 0 outside 1..2"),
            ("p edge 2 1\ne 2 2\n", "line 2: loop edge on vertex 2"),
            ("p edge 3 1\ne 1 2 3\n", "line 2: edge lines take exactly two vertices"),
            # int() alone reads underscores and non-ASCII digits; signs keep
            # the range message
            ("p edge 10 1\ne 1_0 2\n", "line 2: non-integer vertex '1_0'"),
            ("p edge 2 1\ne \u0661 \u0662\n", "line 2: non-integer vertex '\u0661'"),
            ("p edge 2 1\ne -1 2\n", "line 2: vertex -1 outside 1..2"),
        ],
    )
    def test_edge_errors_keep_their_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p edge 3\n", "line 1: expected 'p edge <n> <m>'"),   # wrong field count
            ("p edge -1 0\n", "line 1: counts must be non-negative"),
            ("p edge 2 -1\n", "line 1: counts must be non-negative"),
            ("p edge 1_0 0\n", "line 1: non-integer counts in 'p edge 1_0 0'"),
            ("p edge \u0662 0\n", "line 1: non-integer counts in 'p edge \u0662 0'"),
        ],
    )
    def test_header_errors_keep_their_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.line_no == 1
        assert str(err.value) == message

    def test_rejects_count_mismatch(self):
        # the message names the header's line, after any comments
        for comments, line in (("", 1), ("c one\n\nc two\n", 4)):
            with pytest.raises(ParseError) as err:
                parse_graph(comments + "p edge 3 2\ne 1 2\n")
            assert str(err.value) == f"line {line}: header declares 2 data lines, found 1"

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse_graph("c nothing here\n\nc nor here\n")
        assert str(err.value) == "line 1: missing problem header"


class TestHypergraphParser:
    def test_small_example(self):
        h = parse_hypergraph("p hs3 4 2\ns 1 2 3\ns 4\n")
        assert h.n == 4
        assert h.sets == ((0, 1, 2), (3,))

    @pytest.mark.parametrize(
        "text,line",
        [
            ("p hs3 3 1\ns 1 2 3 1\n", 2),  # too many elements
            ("p hs3 3 1\ns 2 2\n", 2),      # repeated element
            ("p hs3 3 1\ns 4\n", 2),        # out of range
            ("c one\n\np hs3 3 2\ns 1 2 3\n", 3),  # count mismatch: the header's line
        ],
    )
    def test_rejects_malformed(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_hypergraph(text)
        assert err.value.line_no == line

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p hs3 3 1\ns 1 2 3 1\n", "line 2: set lines take one to three elements"),
            ("p hs3 3 1\ns 2 2\n", "line 2: repeated element within a set"),
            ("p hs3 3\n", "line 1: expected 'p hs3 <n> <m>'"),
            ("p hs3 3 1\ns 1 x\n", "line 2: non-integer vertex 'x'"),
            ("p hs3 3 1\ns 1 4\n", "line 2: vertex 4 outside 1..3"),
            ("p hs3 3 1\ns 1 \uff12 3\n", "line 2: non-integer vertex '\uff12'"),
            ("p hs3 3 1\ns 1_2\n", "line 2: non-integer vertex '1_2'"),
            ("p hs3 3 1\ns -1\n", "line 2: vertex -1 outside 1..3"),
            ("p hs3 1_0 0\n", "line 1: non-integer counts in 'p hs3 1_0 0'"),
        ],
    )
    def test_set_errors_keep_their_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_hypergraph(text)
        assert str(err.value) == message


class TestGenerators:
    def test_gnp_extremes(self):
        assert gen_gnp(5, 0.0, seed=1).edges == ()
        assert len(gen_gnp(5, 1.0, seed=1).edges) == 10

    def test_gnp_deterministic(self):
        assert gen_gnp(9, 0.3, seed=4).edges == gen_gnp(9, 0.3, seed=4).edges
        assert gen_gnp(9, 0.3, seed=4).edges != gen_gnp(9, 0.3, seed=5).edges

    def test_gnp_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_gnp(5, 1.5, seed=1)
        with pytest.raises(ValueError):
            gen_gnp(-1, 0.5, seed=1)


# The set-based branching oracles as they were before the bitmask core: the
# reference the core must agree with call for call, including which of
# several solutions it returns.


def reference_vc_extend(g, x, k):
    if k < 0:
        return None
    edges = sorted(e for e in g.edges if e[0] not in x and e[1] not in x)

    def branch(chosen, budget):
        uncovered = next(
            (e for e in edges if e[0] not in chosen and e[1] not in chosen), None
        )
        if uncovered is None:
            return frozenset(chosen)
        if budget == 0:
            return None
        for v in uncovered:
            chosen.add(v)
            result = branch(chosen, budget - 1)
            chosen.discard(v)
            if result is not None:
                return result
        return None

    return branch(set(), k)


def reference_hs3_extend(h, x, k):
    if k < 0:
        return None
    sets = [t for t in h.sets if not any(v in x for v in t)]

    def branch(chosen, budget):
        unhit = next((t for t in sets if not any(v in chosen for v in t)), None)
        if unhit is None:
            return frozenset(chosen)
        if budget == 0:
            return None
        for v in unhit:
            chosen.add(v)
            result = branch(chosen, budget - 1)
            chosen.discard(v)
            if result is not None:
                return result
        return None

    return branch(set(), k)


def _random_hypergraph(rng, n, m, sizes=None):
    # sets in the order drawn, so the stored order is not sorted; each size
    # from 1 to 3, or drawn from sizes
    def size():
        return rng.randint(1, min(3, n)) if sizes is None else min(rng.choice(sizes), n)

    return Hypergraph3(n, tuple(tuple(rng.sample(range(n), size())) for _ in range(m)))


class TestBitmaskCoreEquivalence:
    def test_vc_matches_reference(self):
        rng = random.Random(11)
        # the last 100 are dense enough for many triangles
        for i in range(300):
            g = gen_gnp(rng.randint(2, 16), rng.uniform(0.1, 0.5 if i < 200 else 0.7), seed=i)
            oracle = vc_exact_oracle(g)
            x = frozenset(rng.sample(range(g.n), rng.randint(0, g.n // 2)))
            k = rng.randint(-1, 8)
            expected = reference_vc_extend(g, x, k)
            assert oracle.extend(x, k, rng) == expected

    def test_hs3_matches_reference(self):
        rng = random.Random(12)
        unsorted = 0
        # the last 100 are mostly pairs, so many form triangles
        for i in range(300):
            n = rng.randint(2, 14)
            if i < 200:
                h = _random_hypergraph(rng, n, rng.randint(1, 2 * n))
            else:
                h = _random_hypergraph(rng, n, rng.randint(1, 3 * n), (2, 2, 2, 3))
            unsorted += list(h.sets) != sorted(h.sets)
            oracle = hs3_exact_oracle(h)
            x = frozenset(rng.sample(range(n), rng.randint(0, n // 2)))
            k = rng.randint(-1, 7)
            expected = reference_hs3_extend(h, x, k)
            assert oracle.extend(x, k, rng) == expected
        assert unsorted > 100

    def test_input_order_picks_the_solution(self):
        # the first unhit set in stored order is branched on first
        a = Hypergraph3(4, ((0, 1), (1, 2), (2, 3)))
        b = Hypergraph3(4, ((1, 2), (0, 1), (2, 3)))
        assert hs3_exact_oracle(a).extend(frozenset(), 2, None) == frozenset({0, 2})
        assert hs3_exact_oracle(b).extend(frozenset(), 2, None) == frozenset({1, 2})
        assert reference_hs3_extend(b, frozenset(), 2) == frozenset({1, 2})


# A 2400-vertex path needs 1200 vertices, and the search chooses one per
# level: 1200 deep, past the interpreter's recursion limit.
PATH_2400 = tuple((v, v + 1) for v in range(2399))


class TestDeepSearch:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: vc_exact_oracle(Graph(2400, PATH_2400)),
            lambda: hs3_exact_oracle(Hypergraph3(2400, PATH_2400)),
        ],
        ids=["vc", "hs3"],
    )
    def test_deep_search_has_no_depth_limit(self, make):
        oracle = make()
        found = oracle.extend(frozenset(), 1200, None)
        assert len(found) == 1200
        assert is_cover(PATH_2400, found)
        assert oracle.extend(frozenset(), 1199, None) is None


# 30 disjoint edges need 30 vertices: plain branching walks all 2**29
# leaves before it answers None for k = 29; the disjoint-sets bound answers
# at the root.  Likewise 3**19 leaves for 20 disjoint triples at k = 19.
DISJOINT_SETS = """
from amls.problems import Graph, Hypergraph3, hs3_exact_oracle, vc_exact_oracle

g = Graph(60, tuple((2 * i, 2 * i + 1) for i in range(30)))
assert vc_exact_oracle(g).extend(frozenset(), 29, None) is None
assert vc_exact_oracle(g).extend(frozenset(), 30, None) == frozenset(range(0, 60, 2))
h = Hypergraph3(60, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(20)))
assert hs3_exact_oracle(h).extend(frozenset(), 19, None) is None
assert hs3_exact_oracle(h).extend(frozenset({0}), 18, None) is None
# 20 disjoint triangles need 40 vertices: the disjoint-sets bound alone
# counts one per triangle, and the search backtracks through far more nodes
# than the time limit allows; the triangle cut counts two and answers at
# the root
t = Graph(60, tuple(e for i in range(0, 60, 3) for e in ((i, i + 1), (i, i + 2), (i + 1, i + 2))))
assert vc_exact_oracle(t).extend(frozenset(), 39, None) is None
assert vc_exact_oracle(t).extend(frozenset(), 40, None) == frozenset(v for v in range(60) if v % 3 < 2)
print("done")
"""


class TestDisjointSetsBound:
    def test_disjoint_sets_prune_at_once(self):
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(amls.__file__)))
        pythonpath = os.pathsep.join(
            p for p in (package_root, os.environ.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", DISJOINT_SETS],
            capture_output=True, text=True, timeout=20,
            env=dict(os.environ, PYTHONPATH=pythonpath),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["done"]
