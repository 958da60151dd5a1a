"""Set-intersection families and coverings, built by greedy set cover.

Two kinds of combinatorial designs over the universe [n) = {0, ..., n-1}:

  * An (n, p, q, r)-set-intersection family is a collection of q-subsets
    such that every p-subset T meets some member X in at least r elements
    (weak) or exactly r elements (strong).  Parameters must satisfy
    n >= p >= r >= 1 and n - p + r >= q >= r.
  * An (n, t, k)-covering is a collection of t-subsets such that every
    k-subset is contained in some member.  A k-subset lies in a member iff
    it meets it in k elements, so for k >= 1 this is exactly the weak
    (n, k, t, k)-set-intersection family, and it is built as one.

Both come from one builder, ``_greedy``, the classic greedy
set-cover heuristic: the universe of the cover instance is the set of all
target subsets, candidates are all subsets of the member size, and each
round picks the candidate covering the most still-uncovered targets (ties
broken toward the lexicographically smallest candidate, so outputs are
reproducible).  Greedy pays a factor of at most H(M), the M-th harmonic
number, over the optimum, where M is the number of targets one candidate
serves.

The builder is pure Python over int bitsets.  A candidate's column is the
bitset of the targets it serves, and a Python int takes memory up to its
highest set bit.  Candidates are indexed in combinations order, which fixes
the tie rule.  Targets are indexed in colex order where a target must lie
inside its candidate C (every covering): those targets all precede any
target holding an element above max(C), so C's column is at most
C(max(C) + 1, k) bits wide, and covering (14, 7, 5) holds 0.69 MB of
columns against 0.92 MB in combinations order.  Every other family keeps
combinations order for its targets, which measured narrower there: the
(14, 8, 5, 5) family holds 0.63 MB of columns, and 0.83 MB in colex.  The
order of the targets changes no count, so no pick.  Columns come from
bit-sliced threshold counters shared along a depth-first walk of the
candidates (``_columns``).  The greedy is Minoux's lazy greedy: a score
only falls as targets get covered, so only candidates whose last count
ties the current maximum are recounted, in index order, and the first
whose recount keeps the maximum is the first maximum of a full recount.
That is the tie rule above.

Construction enumerates all p- and q-subsets, so its cost grows with
C(n, p) * C(n, q).  One fixed universe-size limit, LIMIT = 14, gates every
construction, verification and search that enumerates subsets; the
largest construction it admits, C(14, 7) targets by C(14, 7) candidates,
holds at most about 1.5 MB of columns.  Families are immutable once built.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import comb

from . import _EXPORTS, _check_npqr

__all__ = _EXPORTS["families"]

Members = tuple[tuple[int, ...], ...]
LIMIT = 14


class LimitExceededError(RuntimeError, ValueError):
    """Requested construction is above the universe-size limit LIMIT."""


def check_limit(n: int, what: str) -> None:
    """Raise LimitExceededError if n > LIMIT; what names the caller."""
    if n > LIMIT:
        raise LimitExceededError(f"{what} limited to n <= {LIMIT}, got n={n}")


class SetFamily(namedtuple("SetFamily", "n member_size members kind params")):
    """An explicit family of fixed-size subsets of [n).

    members is a tuple of member tuples.  params is (p, q, r) for
    intersection families and (t, k) for coverings.  verify_family checks
    the defining property exhaustively.
    """

    __slots__ = ()


def _containing(n: int, size: int, colex: bool) -> list[int]:
    """elem[e]: bitset of the size-subsets of [n) holding e, indexed in
    combinations order, or in colex order if colex.

    In combinations order the size-subsets of [a, n) are a + each
    (size - 1)-subset of [a + 1, n), then the size-subsets of [a + 1, n); in
    colex order those of [0, m) are the size-subsets of [0, m - 1), then
    each (size - 1)-subset of [0, m - 1) + (m - 1).  rows[p] holds the
    bitsets for the p-subsets of the suffix, or prefix, built so far.
    """
    rows = [[0] * n for _ in range(size + 1)]
    for m in range(1, n + 1):
        for p in range(min(size, m), 0, -1):
            if colex:  # add m - 1 to the prefix [0, m - 1)
                a, shift = m - 1, comb(m - 1, p)
                rows[p] = [w | o << shift for w, o in zip(rows[p], rows[p - 1])]
                rows[p][a] = (1 << comb(m - 1, p - 1)) - 1 << shift
            else:  # add a = n - m to the suffix [a + 1, n)
                a, shift = n - m, comb(m - 1, p - 1)
                rows[p] = [w | o << shift for w, o in zip(rows[p - 1], rows[p])]
                rows[p][a] = (1 << shift) - 1
    return rows[size]


def _columns(n: int, target_size: int, member_size: int, lo: int, hi: int) -> list[int]:
    """Column j: bitset of the targets i with lo <= |T_i & C_j| <= hi.

    A depth-first walk over the candidates (member_size >= 1) keeps per
    prefix the counters ge[m], the targets meeting it in >= m elements;
    adding e sets ge[m] |= ge[m - 1] & elem[e].  Only counters that can still
    reach ge[lo] or ge[hi + 1] are updated (the window).  Targets are in
    colex order where each must lie inside its candidate (lo = target_size),
    else in combinations order; the module docstring says why.
    """
    elem = _containing(n, target_size, colex=lo == target_size)
    bounded = hi < min(target_size, member_size)  # else no count exceeds hi
    cap = hi + 1 if bounded else lo
    cols: list[int] = []
    # per depth, in place: reads hit the parent's window, ge[0] or unwritten 0s
    gs = [[(1 << comb(n, target_size)) - 1] + [0] * cap for _ in range(member_size)]

    def walk(start: int, depth: int) -> None:
        ge, left = gs[depth], member_size - depth
        if left == 1:  # the extensions are candidates; ge[0] is full if lo = 0
            for x in elem[start:]:
                col = ge[lo] | ge[lo - 1] & x
                cols.append(col & ~(ge[hi + 1] | ge[hi] & x) if bounded else col)
            return
        child = gs[depth + 1]
        window = range(max(1, lo - left + 1), min(cap, depth + 1) + 1)
        for e in range(start, n - left + 1):
            x = elem[e]
            for m in window:
                child[m] = ge[m] | ge[m - 1] & x
            walk(e + 1, depth + 1)

    walk(0, 0)
    return cols


def _greedy(n: int, target_size: int, member_size: int, lo: int, hi: int) -> Members:
    """Lazy greedy cover where candidate C serves target T iff lo <= |T & C| <= hi.

    buckets[s] holds the candidates last counted at s; the top bucket is
    recounted in index order, and the module docstring says why that works.
    Picks are kept as candidate indices, and their members read off in one
    pass over the candidates at the end, so no list of all C(n, q) member
    tuples is held.  The one builder of every family and covering; a run
    builds each family once, so nothing is cached.
    """
    cols = _columns(n, target_size, member_size, lo, hi)
    uncovered = (1 << comb(n, target_size)) - 1
    buckets: list[list[int]] = [[] for _ in range(uncovered.bit_length() + 1)]
    for j, col in enumerate(cols):
        buckets[col.bit_count()].append(j)
    picked: list[int] = []
    top = len(buckets) - 1
    while uncovered:
        while top and not buckets[top]:
            top -= 1
        if not top:
            raise ValueError("infeasible parameter combination: uncoverable target")
        level, buckets[top] = sorted(buckets[top]), []
        for j in level:
            score = (cols[j] & uncovered).bit_count()
            if score == top:
                picked.append(j)
                uncovered &= ~cols[j]
            else:
                buckets[score].append(j)
    wanted = set(picked)
    found = {j: m for j, m in enumerate(combinations(range(n), member_size)) if j in wanted}
    return tuple(found[j] for j in picked)


def build_intersection_family(n: int, p: int, q: int, r: int, strong: bool = False) -> SetFamily:
    """Weak or strong (n, p, q, r)-set-intersection family via greedy cover.

    Requires n >= p >= r >= 1, n - p + r >= q >= r, and n <= LIMIT.
    """
    _check_npqr(n, p, q, r)
    check_limit(n, "intersection family")
    kind = "intersection_strong" if strong else "intersection_weak"
    members = _greedy(n, p, q, r, r if strong else q)
    return SetFamily(n=n, member_size=q, members=members, kind=kind, params=(p, q, r))


def build_covering(n: int, t: int, k: int) -> SetFamily:
    """(n, t, k)-covering: the weak (n, k, t, k)-set-intersection family.

    Requires 0 <= k <= t <= n and n <= LIMIT.  t = 0 has the one member ()
    and no greedy.
    """
    if not 0 <= k <= t <= n:
        raise ValueError(f"need 0 <= k <= t <= n, got n={n}, t={t}, k={k}")
    check_limit(n, "covering")
    members = _greedy(n, k, t, k, t) if t else ((),)
    return SetFamily(n=n, member_size=t, members=members, kind="covering", params=(t, k))


def verify_family(family: SetFamily) -> bool:
    """Exhaustively check the defining property over all target subsets.

    Returns True only if every target is served, and False for families
    with malformed members.  Enumerates all p- or k-subsets, hence the
    n <= LIMIT gate.
    """
    check_limit(family.n, "verification")
    q = family.member_size
    for member in family.members:
        if len(member) != q or len(set(member)) != q:
            return False
        if not all(0 <= v < family.n for v in member):
            return False
    if family.kind == "covering":
        declared, size = family.params
        lo = hi = size  # a k-subset lies in X iff it meets X in k elements
    elif family.kind in ("intersection_weak", "intersection_strong"):
        size, declared, lo = family.params
        hi = lo if family.kind == "intersection_strong" else size
    else:
        raise ValueError(f"unknown family kind {family.kind!r}")
    if declared != q:
        return False
    masks = [sum(1 << v for v in m) for m in family.members]
    for target in combinations(range(family.n), size):
        tmask = sum(1 << v for v in target)
        if not any(lo <= (mask & tmask).bit_count() <= hi for mask in masks):
            return False
    return True


def family_to_text(family: SetFamily) -> str:
    """The family as text: the header line
    ``family <kind> n=<n> q=<member size> params=<p,q,r or t,k>``, then each
    member sorted, space-separated, one per line."""
    params = ",".join(str(v) for v in family.params)
    lines = [f"family {family.kind} n={family.n} q={family.member_size} params={params}"]
    lines.extend(" ".join(str(v) for v in sorted(m)) for m in family.members)
    return "\n".join(lines) + "\n"
