"""Concrete monotone systems: vertex cover and 3-hitting set.

Graphs use the DIMACS edge format externally (1-based vertices) and 0-based
contiguous vertex ids internally:

    c optional comment lines
    p edge <n> <m>
    e <u> <v>          (m of these, 1 <= u,v <= n, u != v)

Hypergraphs use the analogous format with a ``p hs3 <n> <m>`` header and
``s <a> [b] [c]`` lines holding 1-3 distinct 1-based elements.

Vertex cover is hitting set with sets of two, so both problems share one
validator, one membership test and one exact oracle, and differ only in
their parsers, labels and oracle bases.  All extension oracles are
deterministic.  The exact oracle is one hitting-set core over both:
it branches on the first set the chosen elements miss, trying its elements
in ascending order (base 2 or 3 per unit of budget).  Sets and the chosen
elements are int bitmasks; the masks, the apexes below and the search
itself are built once per oracle.  Along a branch the chosen set only
grows, so each node resumes the scan for the first unhit set where its
parent stopped.  Before branching with budget b, a node walks the rest of
the list and greedily packs unhit sets disjoint from each other: each
needs an element of its own.  When a packed pair {u, v} has a free apex
w, an element with {u, w} and {v, w} sets too, the node packs the whole
triangle, whose three pairs need two elements.  A packing that needs more
than b elements returns None at once.  The cut removes only subtrees
without a solution, so the search returns the same first solution as
plain branching.

The matching oracle returns both endpoints of a greedy maximal matching,
a polynomial 2-approximate extension exercising the (alpha=2, c=1)
corner.  One pass over the edge bitmasks, in input order, gives the whole
matching of G - X; each oracle keeps the matching of the last X, so the
repeated X = {} of a c = 1 run is scanned once.  More than k matched edges
answer None.  All tie-breaking is lexicographic (first uncovered edge or
set, elements in ascending order) so identical inputs give identical
outputs.
"""

from __future__ import annotations

import random
from collections import defaultdict, namedtuple
from itertools import combinations

from . import _EXPORTS
from .engine import ExtensionOracle, MonotoneInstance

__all__ = _EXPORTS["problems"]


class ParseError(ValueError):
    """Malformed instance text; message carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph(namedtuple("Graph", "n edges")):
    """Simple undirected graph; edges normalized to u < v, deduplicated.

    Edge order (first occurrence) is preserved: the matching oracle scans it.
    """

    __slots__ = ()

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __new__(cls, n: int, edges):
        return super().__new__(cls, n, _normalized(n, edges, (2,), "edge"))


class Hypergraph3(namedtuple("Hypergraph3", "n sets")):
    """Set system with member sets of size 1-3, deduplicated, sorted."""

    __slots__ = ()

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __new__(cls, n: int, sets):
        return super().__new__(cls, n, _normalized(n, sets, (1, 2, 3), "set"))


# ------------------------------------------------------- hitting-set core


def _normalized(n: int, sets, sizes: tuple[int, ...], what: str) -> tuple[tuple[int, ...], ...]:
    """The sets as ascending tuples, first occurrences only, in input order.

    Each set must hold a number of distinct elements in sizes, all in [0, n).
    """
    if n < 0:
        raise ValueError(f"universe size must be >= 0, got {n}")
    normalized = []
    for s in sets:
        t = tuple(sorted(s))
        if len(t) not in sizes or len(set(t)) != len(t) or not (0 <= t[0] and t[-1] < n):
            allowed = "/".join(map(str, sizes))
            raise ValueError(f"{what} {s} must have {allowed} distinct elements in [0, {n})")
        normalized.append(t)
    return tuple(dict.fromkeys(normalized))


def _hitting_system(n: int, sets, label: str) -> MonotoneInstance:
    """Monotone system whose members intersect every one of the sets."""

    def membership(s: frozenset) -> bool:
        return all(not s.isdisjoint(t) for t in sets)

    return MonotoneInstance(n=n, membership=membership, label=label)


def _hitting_sets(sets) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Bitmasks and elements of the sets, in the given order; each set is an
    ascending tuple, as ``Graph`` and ``Hypergraph3`` store them."""
    elems = tuple(sets)
    return tuple(sum(map((1).__lshift__, t)) for t in elems), elems


def _exact_oracle(sets, c: float) -> ExtensionOracle:
    """The exact branching oracle over the sets, scanned in the given order.

    Its extend returns at most k elements hitting every set x misses, else
    None: depth-k branching on the first unhit set in list order, its
    elements in ascending order; the first solution found is returned.  The
    search starts from x itself as chosen, which skips exactly the sets x
    hits.
    """
    masks, elems = _hitting_sets(sets)
    m = len(masks)
    # each pair {u, v} with apexes -> the mask of the w with {u, w} and
    # {v, w} sets too
    partners = defaultdict(int)
    pairs = [(mask, t) for mask, t in zip(masks, elems) if len(t) == 2]
    for _, (u, v) in pairs:
        partners[u] |= 1 << v
        partners[v] |= 1 << u
    apexes = {mask: a for mask, (u, v) in pairs if (a := partners[u] & partners[v])}

    def branch(chosen: int, i: int, budget: int) -> int | None:
        while i < m and masks[i] & chosen:
            i += 1
        if i == m:
            return chosen
        if budget == 0:
            return None
        # each packed unhit set needs an element of its own; a pair packed
        # with a free apex packs a triangle of pairs, which needs two
        blocked = chosen
        need = 0
        for mask in masks[i:]:
            if not mask & blocked:
                blocked |= mask
                need += 1
                if mask in apexes:
                    free = apexes[mask] & ~blocked
                    if free:
                        blocked |= free & -free
                        need += 1
                if need > budget:
                    return None
        for v in elems[i]:
            result = branch(chosen | 1 << v, i + 1, budget - 1)
            if result is not None:
                return result
        return None

    def extend(x: frozenset, k: int, rng) -> frozenset | None:
        if k < 0:
            return None
        x_mask = sum(map((1).__lshift__, x))
        found = branch(x_mask, 0, k)
        if found is None:
            return None
        found &= ~x_mask
        return frozenset(v for v in range(found.bit_length()) if found >> v & 1)

    return ExtensionOracle(alpha=1.0, c=c, success_prob=1.0, extend=extend)


# ---------------------------------------------------------------- vertex cover


def vc_system(g: Graph) -> MonotoneInstance:
    """Monotone system whose members are the vertex covers of g."""
    return _hitting_system(g.n, g.edges, f"vc(n={g.n},m={len(g.edges)})")


def vc_exact_oracle(g: Graph) -> ExtensionOracle:
    """Exact vertex-cover extension (alpha 1, base 2): a cover of G - x of
    size <= k by two-way branching on the lexicographically first uncovered
    edge, lower endpoint first.  The branching is complete, so None means no
    completion of size <= k exists."""
    return _exact_oracle(sorted(g.edges), 2.0)


def vc_matching_oracle(g: Graph) -> ExtensionOracle:
    """Polynomial 2-approximate extension (alpha 2, base 1): both endpoints
    of a greedy maximal matching of G - x, one pass over the edge bitmasks
    in input order, remembered for the last x.  None when the matching has
    more than k edges: any cover hits each matched edge, so no completion
    of size <= k exists either."""
    masks = _hitting_sets(g.edges)[0]
    last_x, size, matched = None, 0, frozenset()

    def extend(x: frozenset, k: int, rng) -> frozenset | None:
        nonlocal last_x, size, matched
        if k < 0:
            return None
        if x != last_x:
            x_mask = sum(map((1).__lshift__, x))
            blocked, size = x_mask, 0
            for mask in masks:  # take each edge missing x and the taken edges
                if not mask & blocked:
                    blocked |= mask
                    size += 1
            blocked &= ~x_mask
            last_x = x
            matched = frozenset(v for v in range(blocked.bit_length()) if blocked >> v & 1)
        return None if size > k else matched

    return ExtensionOracle(alpha=2.0, c=1.0, success_prob=1.0, extend=extend)


# --------------------------------------------------------------- 3-hitting set


def hs3_system(h: Hypergraph3) -> MonotoneInstance:
    """Monotone system whose members intersect every set of h."""
    return _hitting_system(h.n, h.sets, f"hs3(n={h.n},m={len(h.sets)})")


def hs3_exact_oracle(h: Hypergraph3) -> ExtensionOracle:
    """Exact 3-hitting-set extension (alpha 1, base 3): a hitting set of the
    sets x misses, of size <= k, by <=3-way branching on the first unhit set
    in stored order, elements ascending.  The branching is complete, so None
    means no completion of size <= k exists."""
    return _exact_oracle(h.sets, 3.0)


# -------------------------------------------------------------------- parsing


def _parse_header(fields, line_no, expected_kind):
    if len(fields) != 4 or fields[1] != expected_kind:
        raise ParseError(line_no, f"expected 'p {expected_kind} <n> <m>'")
    try:
        n, m = int(fields[2]), int(fields[3])
    except ValueError:
        raise ParseError(line_no, f"non-integer counts in {' '.join(fields)!r}") from None
    if n < 0 or m < 0:
        raise ParseError(line_no, "counts must be non-negative")
    return n, m


def _parse_lines(text, kind, item_tag, parse_item):
    header = None
    items = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise ParseError(line_no, "duplicate problem header")
            header = _parse_header(fields, line_no, kind)
        elif fields[0] == item_tag:
            if header is None:
                raise ParseError(line_no, "data line before the problem header")
            items.append(parse_item(fields[1:], line_no, header[0]))
        else:
            raise ParseError(line_no, f"unrecognized line {raw!r}")
    if header is None:
        raise ParseError(1, "missing problem header")
    n, m = header
    if len(items) != m:
        raise ParseError(1, f"header declares {m} data lines, found {len(items)}")
    return n, items


def _parse_vertex(token, line_no, n):
    try:
        v = int(token)
    except ValueError:
        raise ParseError(line_no, f"non-integer vertex {token!r}") from None
    if not 1 <= v <= n:
        raise ParseError(line_no, f"vertex {v} outside 1..{n}")
    return v - 1


def parse_graph(text: str) -> Graph:
    """Strict DIMACS edge-format parser (see module docstring)."""

    def parse_edge(tokens, line_no, n):
        if len(tokens) != 2:
            raise ParseError(line_no, "edge lines take exactly two vertices")
        u = _parse_vertex(tokens[0], line_no, n)
        v = _parse_vertex(tokens[1], line_no, n)
        if u == v:
            raise ParseError(line_no, f"loop edge on vertex {u + 1}")
        return (u, v) if u < v else (v, u)

    n, edges = _parse_lines(text, "edge", "e", parse_edge)
    return Graph(n=n, edges=tuple(edges))


def parse_hypergraph(text: str) -> Hypergraph3:
    """Strict parser for the hs3 format (see module docstring)."""

    def parse_set(tokens, line_no, n):
        if not 1 <= len(tokens) <= 3:
            raise ParseError(line_no, "set lines take one to three elements")
        elems = tuple(sorted(_parse_vertex(t, line_no, n) for t in tokens))
        if len(set(elems)) != len(elems):
            raise ParseError(line_no, "repeated element within a set")
        return elems

    n, sets = _parse_lines(text, "hs3", "s", parse_set)
    return Hypergraph3(n=n, sets=tuple(sets))


# ----------------------------------------------------------------- generators


def gen_gnp(n: int, p_edge: float, seed: int) -> Graph:
    """G(n, p): each of the C(n, 2) pairs drawn independently."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 <= p_edge <= 1.0:
        raise ValueError(f"p_edge must be in [0, 1], got {p_edge}")
    rng = random.Random(seed)
    edges = tuple((u, v) for u, v in combinations(range(n), 2) if rng.random() < p_edge)
    return Graph(n=n, edges=edges)
