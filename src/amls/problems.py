"""Concrete monotone systems: vertex cover and 3-hitting set.

Graphs use the DIMACS edge format externally (1-based vertices) and 0-based
contiguous vertex ids internally:

    c optional comment lines
    p edge <n> <m>
    e <u> <v>          (m of these, 1 <= u,v <= n, u != v)

Hypergraphs use the analogous format with a ``p hs3 <n> <m>`` header and
``s <a> [b] [c]`` lines holding 1-3 distinct 1-based elements.

Vertex cover is hitting set with sets of two, so both problems share one
parser, one validator, one membership test and one exact oracle, and differ
only in their tags, messages, labels and oracle bases.  All extension
oracles are deterministic.  The exact oracle is one hitting-set core over
both: it branches on the first set the chosen elements miss, trying its
elements in ascending order (base 2 or 3 per unit of budget).  Sets and
the chosen elements are int bitmasks; the masks and the apexes below are
built once per oracle.  The search is one depth-first loop over
(chosen, next set, budget) nodes, the ones still to visit on an explicit
stack, so its depth has no interpreter limit; a node's children are
pushed in reverse, so they pop in ascending order.  Along a branch the chosen set only grows, so each
node resumes the scan for the first unhit set where its parent stopped.
Before branching with budget b, a node walks the rest of the list and
greedily packs unhit sets disjoint from each other: each needs an element
of its own.  When a packed pair {u, v} has a free apex w, an element with
{u, w} and {v, w} sets too, the node packs the whole triangle, whose three
pairs need two elements.  A packing that needs more than b elements cuts
the node at once; at b = 0 the first unhit set alone does.  The cut
removes only subtrees without a solution, so the search returns the same
first solution as plain branching.

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

from . import _EXPORTS, _ascii
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
    Graph(n, edges) and _replace validate; parse_graph checks each line as
    it reads it and skips that second pass.
    """

    __slots__ = ()

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __new__(cls, n: int, edges):
        return super().__new__(cls, n, _normalized(n, edges, (2,), "edge"))


class Hypergraph3(namedtuple("Hypergraph3", "n sets")):
    """Set system with member sets of size 1-3, each set's elements sorted.

    Sets keep their first occurrences in input order, which the exact oracle
    branches in: ``Hypergraph3(3, [(2, 1), (0,), (1, 2)]).sets`` is
    ``((1, 2), (0,))``.  Hypergraph3(n, sets) and _replace validate;
    parse_hypergraph checks each line as it reads it and skips that pass.
    """

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


def _exact_oracle(sets, c: float) -> ExtensionOracle:
    """The exact branching oracle over the sets, scanned in the given order.

    Its extend returns at most k elements hitting every set x misses, else
    None: depth-k branching on the first unhit set in list order, its
    elements in ascending order; the first solution found is returned.  The
    search starts from x itself as chosen, which skips exactly the sets x
    hits.
    """
    elems = tuple(sets)
    masks = tuple(sum(map((1).__lshift__, t)) for t in elems)
    m = len(masks)
    # each pair {u, v} with apexes -> the mask of the w with {u, w} and
    # {v, w} sets too
    partners = defaultdict(int)
    pairs = [(mask, t) for mask, t in zip(masks, elems) if len(t) == 2]
    for _, (u, v) in pairs:
        partners[u] |= 1 << v
        partners[v] |= 1 << u
    apexes = {mask: a for mask, (u, v) in pairs if (a := partners[u] & partners[v])}

    def extend(x: frozenset, k: int, rng) -> frozenset | None:
        if k < 0:
            return None
        x_mask = sum(map((1).__lshift__, x))
        chosen, i, budget = x_mask, 0, k
        stack = []
        while True:
            while i < m and masks[i] & chosen:
                i += 1
            if i == m:
                chosen &= ~x_mask
                return frozenset(v for v in range(chosen.bit_length()) if chosen >> v & 1)
            # each packed unhit set needs an element of its own, set i
            # first, so budget 0 is cut at once; a pair packed with a free
            # apex packs a triangle of pairs, which needs two
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
                        break
            else:  # children pushed in reverse pop in ascending order
                for v in reversed(elems[i]):
                    stack.append((chosen | 1 << v, i + 1, budget - 1))
            if not stack:
                return None
            chosen, i, budget = stack.pop()

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
    masks = tuple(sum(map((1).__lshift__, e)) for e in g.edges)
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


def _parse_sets(cls, text, kind, tag, sizes, size_error, repeat_error):
    """The cls (Graph or Hypergraph3) of the instance text: a
    ``p <kind> <n> <m>`` header and m ``<tag>`` lines, each holding a number
    in sizes of distinct 1-based elements, read as ascending 0-based tuples
    in line order, first occurrences only.  A line with a wrong number of
    elements raises size_error; one with a repeat raises repeat_error,
    formatted with the line's least vertex.  These checks are _normalized's,
    so cls is built without its pass."""
    header_line = None
    sets = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header_line is not None:
                raise ParseError(line_no, "duplicate problem header")
            if len(fields) != 4 or fields[1] != kind:
                raise ParseError(line_no, f"expected 'p {kind} <n> <m>'")
            try:
                n, m = int(_ascii(fields[2])), int(_ascii(fields[3]))
            except ValueError:
                raise ParseError(line_no, f"non-integer counts in {' '.join(fields)!r}") from None
            if n < 0 or m < 0:
                raise ParseError(line_no, "counts must be non-negative")
            header_line = line_no
        elif fields[0] == tag:
            if header_line is None:
                raise ParseError(line_no, "data line before the problem header")
            if len(fields) - 1 not in sizes:
                raise ParseError(line_no, size_error)
            vs = []
            for token in fields[1:]:
                try:
                    v = int(_ascii(token))
                except ValueError:
                    raise ParseError(line_no, f"non-integer vertex {token!r}") from None
                if not 1 <= v <= n:
                    raise ParseError(line_no, f"vertex {v} outside 1..{n}")
                vs.append(v - 1)
            vs.sort()
            if len(set(vs)) != len(vs):
                raise ParseError(line_no, repeat_error.format(vs[0] + 1))
            sets.append(tuple(vs))
        else:
            raise ParseError(line_no, f"unrecognized line {raw!r}")
    if header_line is None:
        raise ParseError(1, "missing problem header")
    if len(sets) != m:
        raise ParseError(header_line, f"header declares {m} data lines, found {len(sets)}")
    return tuple.__new__(cls, (n, tuple(dict.fromkeys(sets))))


def parse_graph(text: str) -> Graph:
    """Strict DIMACS edge-format parser (see module docstring); validates once."""
    return _parse_sets(
        Graph, text, "edge", "e", (2,), "edge lines take exactly two vertices",
        "loop edge on vertex {}",
    )


def parse_hypergraph(text: str) -> Hypergraph3:
    """Strict parser for the hs3 format (see module docstring); validates once."""
    return _parse_sets(
        Hypergraph3, text, "hs3", "s", (1, 2, 3), "set lines take one to three elements",
        "repeated element within a set",
    )


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
