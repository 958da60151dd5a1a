"""Set-intersection families and coverings, built by greedy set cover.

Two kinds of combinatorial designs over the universe [n) = {0, ..., n-1}:

  * An (n, p, q, r)-set-intersection family is a collection of q-subsets
    such that every p-subset T meets some member X in at least r elements
    (weak) or exactly r elements (strong).  Parameters must satisfy
    n >= p >= r >= 1 and n - p + r >= q >= r.
  * An (n, t, k)-covering is a collection of t-subsets such that every
    k-subset is contained in some member.

Both are produced by the classic greedy set-cover heuristic: the universe of
the cover instance is the set of all target subsets, candidates are all
subsets of the member size, and each round picks the candidate covering the
most still-uncovered targets (ties broken toward the lexicographically
smallest candidate, so outputs are reproducible).  Greedy pays a factor of
(1 + ln(#targets)) over the optimum; ``family_size_bound`` combines that
ratio with the probabilistic existence bound kappa(n,p,q,r)*(p+1)*ln(n).

The greedy keeps a running score vector, the counting form of Minoux's lazy
greedy: scores are computed once, and each pick subtracts only the rows of
the targets it newly covered, so every round's argmax equals a full
recount's.  The target x candidate coverage matrix is built in fixed blocks
of target rows from popcounts of uint64 subset masks, so subsets of any
universe with n <= 64 are representable.  numpy is imported by the builder
itself, so importing this module (and the ``amls`` CLI) does not load it.

Construction enumerates all p- and q-subsets, so its cost grows with
C(n, p) * C(n, q); a universe-size limit (default 14) gates it.  Families
are immutable once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING

from .combinatorics import binomial, kappa

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LimitExceededError",
    "SetFamily",
    "build_intersection_family",
    "build_covering",
    "verify_family",
    "family_size_bound",
    "family_to_text",
    "family_from_text",
]

KINDS = ("intersection_weak", "intersection_strong", "covering")


class LimitExceededError(RuntimeError):
    """Requested construction is above the configured universe-size limit."""


@dataclass
class SetFamily:
    """An explicit family of fixed-size subsets of [n).

    params is (p, q, r) for intersection families and (t, k) for coverings.
    verified is set by verify_family only after an exhaustive check.
    """

    n: int
    member_size: int
    members: tuple[tuple[int, ...], ...]
    kind: str
    params: tuple[int, ...]
    verified: bool = field(default=False, compare=False)


def _check_limit(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise LimitExceededError(
            f"{what} with n={n} exceeds the construction limit {limit}"
        )


# target rows per block of the coverage build; caps the uint64 AND temporary
# at _BLOCK_ROWS x #candidates
_BLOCK_ROWS = 128


def _masks(n: int, size: int) -> tuple[list[tuple[int, ...]], "np.ndarray"]:
    import numpy as np

    combos = list(combinations(range(n), size))
    elements = np.array(combos, dtype=np.uint64).reshape(len(combos), size)
    masks = np.bitwise_or.reduce(np.uint64(1) << elements, axis=1)
    return combos, masks


def _greedy(
    n: int, target_size: int, member_size: int, admits
) -> tuple[tuple[int, ...], ...]:
    """Greedy set cover; admits(count_matrix) -> bool matrix of coverage.

    served[i, j] says whether candidate j serves target i.  scores[j] counts
    the still-uncovered targets candidate j serves; after each pick only the
    rows of the targets it newly covered are subtracted.
    """
    import numpy as np

    if n > 64:
        raise LimitExceededError(f"subset masks are 64-bit, so n <= 64, got {n}")
    _, tmasks = _masks(n, target_size)
    candidates, cmasks = _masks(n, member_size)
    served = np.empty((len(tmasks), len(cmasks)), dtype=bool)
    for lo in range(0, len(tmasks), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        served[rows] = admits(np.bitwise_count(tmasks[rows, None] & cmasks))
    scores = served.sum(axis=0, dtype=np.int32)  # each score <= #targets < 2**31
    uncovered = np.ones(len(tmasks), dtype=bool)
    remaining = len(tmasks)
    picked: list[tuple[int, ...]] = []
    while remaining:
        best = int(np.argmax(scores))  # first maximum = lexicographically smallest
        if scores[best] == 0:
            raise ValueError("infeasible parameter combination: uncoverable target")
        picked.append(candidates[best])
        newly = np.flatnonzero(uncovered & served[:, best])
        uncovered[newly] = False
        remaining -= len(newly)
        scores -= served[newly].sum(axis=0, dtype=np.int32)
    return tuple(picked)


@lru_cache(maxsize=None)
def _intersection_members(
    n: int, p: int, q: int, r: int, strong: bool
) -> tuple[tuple[int, ...], ...]:
    if strong:
        return _greedy(n, p, q, lambda counts: counts == r)
    return _greedy(n, p, q, lambda counts: counts >= r)


@lru_cache(maxsize=None)
def _covering_members(n: int, t: int, k: int) -> tuple[tuple[int, ...], ...]:
    if t == k:
        return tuple(combinations(range(n), k))
    if t == n:
        return (tuple(range(n)),)
    return _greedy(n, k, t, lambda counts: counts == k)


def build_intersection_family(
    n: int, p: int, q: int, r: int, strong: bool = False, limit: int = 14
) -> SetFamily:
    """Weak or strong (n, p, q, r)-set-intersection family via greedy cover.

    Requires n >= p >= r >= 1, n - p + r >= q >= r, and n <= limit.
    Construction results are cached per parameter tuple.
    """
    if not n >= p >= r >= 1:
        raise ValueError(f"need n >= p >= r >= 1, got n={n}, p={p}, r={r}")
    if not n - p + r >= q >= r:
        raise ValueError(f"need n - p + r >= q >= r, got n={n}, p={p}, q={q}, r={r}")
    _check_limit(n, limit, "intersection family")
    kind = "intersection_strong" if strong else "intersection_weak"
    return SetFamily(
        n=n,
        member_size=q,
        members=_intersection_members(n, p, q, r, strong),
        kind=kind,
        params=(p, q, r),
    )


def build_covering(n: int, t: int, k: int, limit: int = 14) -> SetFamily:
    """(n, t, k)-covering via greedy cover.

    Requires 0 <= k <= t <= n and n <= limit.  t == k degenerates to the
    family of all k-subsets and t == n to the single full universe.
    """
    if not 0 <= k <= t <= n:
        raise ValueError(f"need 0 <= k <= t <= n, got n={n}, t={t}, k={k}")
    _check_limit(n, limit, "covering")
    return SetFamily(
        n=n,
        member_size=t,
        members=_covering_members(n, t, k),
        kind="covering",
        params=(t, k),
    )


def verify_family(family: SetFamily, limit: int = 16) -> bool:
    """Exhaustively check the defining property over all target subsets.

    Sets family.verified (and returns True) only if every target is served.
    Also rejects families with malformed members.  Enumerates all p- or
    k-subsets, hence the n <= limit gate.
    """
    _check_limit(family.n, limit, "verification")
    q = family.member_size
    for member in family.members:
        if len(member) != q or len(set(member)) != q:
            return False
        if not all(0 <= v < family.n for v in member):
            return False
    member_masks = [sum(1 << v for v in m) for m in family.members]

    if family.kind == "covering":
        t, k = family.params
        if t != q:
            return False
        ok = _all_targets_served(family.n, k, member_masks, lambda inter, tm: inter == tm)
    elif family.kind in ("intersection_weak", "intersection_strong"):
        p, q_declared, r = family.params
        if q_declared != q:
            return False
        if family.kind == "intersection_strong":
            ok = _all_targets_served(
                family.n, p, member_masks, lambda inter, tm: inter.bit_count() == r
            )
        else:
            ok = _all_targets_served(
                family.n, p, member_masks, lambda inter, tm: inter.bit_count() >= r
            )
    else:
        raise ValueError(f"unknown family kind {family.kind!r}")

    if ok:
        family.verified = True
    return ok


def _all_targets_served(n: int, target_size: int, member_masks, served) -> bool:
    for target in combinations(range(n), target_size):
        tmask = sum(1 << v for v in target)
        if not any(served(mask & tmask, tmask) for mask in member_masks):
            return False
    return True


def family_size_bound(n: int, p: int, q: int, r: int) -> float:
    """Guaranteed size bound for the greedy weak intersection family.

    kappa(n,p,q,r) * (p+1) * ln(n) bounds the optimum (a random family of
    that size works); greedy multiplies by at most (1 + ln C(n, p)).
    Requires n >= 2 and valid (n, p, q, r).
    """
    if n < 2:
        raise ValueError(f"family_size_bound requires n >= 2, got {n}")
    existence = float(kappa(n, p, q, r)) * (p + 1) * math.log(n)
    return existence * (1.0 + math.log(binomial(n, p)))


def family_to_text(family: SetFamily) -> str:
    """Line-based serialization; bit-exact round-trip with family_from_text."""
    params = ",".join(str(v) for v in family.params)
    lines = [f"family {family.kind} n={family.n} q={family.member_size} params={params}"]
    lines.extend(" ".join(str(v) for v in sorted(m)) for m in family.members)
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> SetFamily:
    """Parse the family_to_text format. The verified flag always starts False."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty family text")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "family":
        raise ValueError(f"malformed family header: {lines[0]!r}")
    kind = head[1]
    if kind not in KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    try:
        n = int(_expect_prefix(head[2], "n="))
        q = int(_expect_prefix(head[3], "q="))
        params = tuple(int(v) for v in _expect_prefix(head[4], "params=").split(","))
    except ValueError as exc:
        raise ValueError(f"malformed family header: {lines[0]!r}") from exc
    members = []
    for line in lines[1:]:
        members.append(tuple(int(v) for v in line.split()))
    return SetFamily(n=n, member_size=q, members=tuple(members), kind=kind, params=params)


def _expect_prefix(token: str, prefix: str) -> str:
    if not token.startswith(prefix):
        raise ValueError(f"expected {prefix!r}, got {token!r}")
    return token[len(prefix):]
