"""Output checker for the benchmark, written without importing ``amls``.

Each check reads the instance file and the text ``amls`` printed and
returns a ``Verdict``.  Solutions are checked for membership (every edge or
set is hit) and for size <= alpha * reference, where the reference is:

  * exact OPT, from this module's branch-and-bound, for the small vertex
    cover and 3-hitting-set instances;
  * for the matching oracle, the LP lower bound on OPT (half of a maximum
    matching of the bipartite double cover).  It is at least every
    maximal matching, so size <= 2 * reference implies size <= 2 * OPT.
    On the benchmark's G(200, 0.1) graphs the LP optimum is n/2, so
    2 * reference = n and the size check cannot fail there: only the
    membership and id checks can reject a matching-oracle solution.

``amls bounds`` rows are checked against closed forms and against the
Kullback-Leibler equation that defines gamma.  The CSV prints six
significant digits, so no printed gamma can have a residual below 1e-9;
instead the residual must change sign inside the printed value's rounding
interval, i.e. the exact root rounds to what was printed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

BOUNDS_HEADER = "alpha,c,amls,brute,naive,emls,dominant"
KL_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """ok: the output is valid and within the approximation guarantee.
    valid: the output is well formed and feasible (a miss of a
    probabilistic guarantee leaves valid True and ok False).
    ratio: output value / reference value (None for failed parses).
    samples: total_samples from the JSON report, if one was printed."""

    ok: bool
    valid: bool
    ratio: Optional[float]
    samples: Optional[int]
    message: str = ""


def fail(message: str) -> Verdict:
    return Verdict(False, False, None, None, message)


# ------------------------------------------------------------------ instances


def parse_instance(text: str) -> tuple[int, list[int]]:
    """(n, sets as bitmasks) from DIMACS ``p edge`` or ``p hs3`` text."""
    n, sets, declared = None, [], None
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            n, declared = int(fields[2]), int(fields[3])
        elif fields[0] in ("e", "s"):
            mask = 0
            for tok in fields[1:]:
                mask |= 1 << (int(tok) - 1)
            sets.append(mask)
        else:
            raise ValueError(f"unexpected line {line!r}")
    if n is None or declared != len(sets):
        raise ValueError("bad header or set count")
    return n, sets


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _disjoint_packing(sets: list[int]) -> int:
    """Size of a greedy pairwise-disjoint subfamily, smallest sets first:
    a lower bound on any hitting set."""
    used = 0
    count = 0
    for s in sorted(sets, key=int.bit_count):
        if not s & used:
            used |= s
            count += 1
    return count


def min_hitting_set(n: int, sets: list[int]) -> int:
    """Exact minimum hitting-set size by branch and bound.

    Branches on a smallest unhit set: its i-th branch takes element e_i and
    excludes e_1..e_{i-1}, which shrinks the sets holding them; a set shrunk
    to one element forces that element.  Prunes with a disjoint packing.
    """
    best = [n]

    def reduce(sets: list[int], taken: int) -> Optional[tuple[list[int], int]]:
        # take forced singletons until none remain; None if a set emptied
        while True:
            if any(s == 0 for s in sets):
                return None
            forced = 0
            for s in sets:
                if s & (s - 1) == 0:
                    forced |= s
            if not forced:
                return sets, taken
            taken += forced.bit_count()
            sets = [s for s in sets if not s & forced]

    def rec(sets: list[int], taken: int) -> None:
        reduced = reduce(sets, taken)
        if reduced is None:
            return
        sets, taken = reduced
        if not sets:
            best[0] = min(best[0], taken)
            return
        if taken + _disjoint_packing(sets) >= best[0]:
            return
        freq: dict[int, int] = {}
        for s in sets:
            for v in _bits(s):
                freq[v] = freq.get(v, 0) + 1
        pivot = min(sets, key=lambda s: (s.bit_count(), -max(freq[v] for v in _bits(s))))
        excluded = 0
        for v in sorted(_bits(pivot), key=lambda v: -freq[v]):
            bit = 1 << v
            rec([s & ~excluded for s in sets if not s & bit], taken + 1)
            excluded |= bit

    rec(list(sets), 0)
    return best[0]


def lp_lower_bound(n: int, edges: list[int]) -> float:
    """Vertex-cover LP optimum: half the maximum matching of the bipartite
    double cover (Kuhn's augmenting paths)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        u, v = _bits(e)
        adj[u].append(v)
        adj[v].append(u)
    match_right = [-1] * n

    def augment(u: int, seen: list[bool]) -> bool:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_right[v] < 0 or augment(match_right[v], seen):
                    match_right[v] = u
                    return True
        return False

    size = sum(augment(u, [False] * n) for u in range(n))
    return size / 2


# ------------------------------------------------------------------ solutions


def check_solution(
    stdout: str, instance_text: str, alpha: float, reference: float, probabilistic: bool
) -> Verdict:
    """Check ``amls solve`` / ``amls brute`` output (run with ``--json -``).

    Requires: a ``size`` line, a ``solution`` line of distinct 1-based ids
    whose count equals the size, every set hit, and size <= alpha *
    reference (with a 1e-9 slack for the float product).  When
    probabilistic, a size above the bound is a miss of a probabilistic
    guarantee: valid but not ok.
    """
    lines = stdout.splitlines()
    if len(lines) < 3 or not lines[0].startswith("size ") or not lines[1].startswith("solution"):
        return fail("missing size/solution lines")
    try:
        size = int(lines[0].split()[1])
        solution = [int(tok) - 1 for tok in lines[1].split()[1:]]
        report = json.loads(lines[2])
        samples = int(report["total_samples"])
    except (ValueError, IndexError, KeyError) as exc:
        return fail(f"unparsable output: {exc}")
    n, sets = parse_instance(instance_text)
    if len(set(solution)) != len(solution) or len(solution) != size:
        return fail(f"size {size} does not match {len(solution)} distinct ids")
    if any(not 0 <= v < n for v in solution):
        return fail("solution id out of range")
    chosen = sum(1 << v for v in solution)
    missed = sum(1 for s in sets if not s & chosen)
    if missed:
        return fail(f"not a member: {missed} set(s) unhit")
    ratio = size / reference if reference else 1.0
    if size > alpha * reference + 1e-9:
        message = f"size {size} > {alpha} * reference {reference}"
        return Verdict(False, probabilistic, ratio, samples, message)
    return Verdict(True, True, ratio, samples)


# --------------------------------------------------------------------- bounds


def _kl(a: float, b: float) -> float:
    """D(a || b) for Bernoulli distributions, 0 * log 0 = 0."""
    total = 0.0
    if a > 0:
        total += a * math.log(a / b)
    if a < 1:
        total += (1 - a) * math.log((1 - a) / (1 - b))
    return total


def kl_residual(alpha: float, c: float, gamma: float) -> float:
    """D(1/alpha || (gamma-1)/(c-1)) - ln(c)/alpha; decreasing in gamma."""
    return _kl(1 / alpha, (gamma - 1) / (c - 1)) - math.log(c) / alpha


def kl_root(alpha: float, c: float) -> float:
    """gamma solving kl_residual == 0, by bisection (for the self-check)."""
    lo, hi = 1.0, 1.0 + (c - 1) / alpha
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if kl_residual(alpha, c, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _six(x: float) -> float:
    return float(f"{x:.6g}")


def _rounding_interval(text: str) -> tuple[float, float]:
    """The reals that %.6g prints as text."""
    value = float(text)
    half_ulp = 0.5 * 10 ** (math.floor(math.log10(abs(value))) - 5)
    return value - half_ulp, value + half_ulp


def check_bounds_row(row: str, alpha: float, c: float) -> Optional[str]:
    """None if the row is right for (alpha, c) with c > 1, else the reason."""
    fields = row.split(",")
    if len(fields) != 7:
        return f"expected 7 fields: {row!r}"
    try:
        r_alpha, r_c, gamma, brute, naive, emls = (float(f) for f in fields[:6])
    except ValueError:
        return f"non-numeric field: {row!r}"
    if (r_alpha, r_c) != (_six(alpha), _six(c)):
        return f"row is for ({r_alpha}, {r_c}), expected ({alpha}, {c})"
    exact = {
        "brute": 1 + (alpha - 1) ** (alpha - 1) / alpha**alpha,
        "naive": c ** (1 / alpha),
        "emls": 2 - 1 / c,
    }
    for name, printed in zip(("brute", "naive", "emls"), (brute, naive, emls)):
        if printed != _six(exact[name]):
            return f"{name} {printed} != {_six(exact[name])}"
    lo, hi = _rounding_interval(fields[2])
    if not 1 < lo < hi < 1 + (c - 1) / alpha:
        return f"gamma {fields[2]} outside (1, 1 + (c-1)/alpha)"
    lo_res, hi_res = kl_residual(alpha, c, lo), kl_residual(alpha, c, hi)
    if not (lo_res >= -KL_RESIDUAL_TOL and hi_res <= KL_RESIDUAL_TOL):
        return f"gamma {fields[2]}: KL residual {lo_res:.3g}..{hi_res:.3g} has no root"
    if not gamma < min(brute, naive):
        return f"gamma {gamma} not below min(brute, naive) = {min(brute, naive)}"
    dominant = min(exact, key=exact.__getitem__)
    if fields[6] != dominant:
        return f"dominant {fields[6]!r} != {dominant!r}"
    return None


def check_bounds(stdout: str, alphas: list[float], cs: list[float]) -> Verdict:
    """Check an ``amls bounds`` table: header, one row per (alpha, c) with
    alphas outer, every row right.  ratio is the mean of gamma / min(brute,
    naive) over the rows."""
    lines = stdout.splitlines()
    expected = [(a, c) for a in alphas for c in cs]
    if not lines or lines[0] != BOUNDS_HEADER:
        return fail("missing CSV header")
    if len(lines) - 1 != len(expected):
        return fail(f"{len(lines) - 1} rows, expected {len(expected)}")
    ratio_sum = 0.0
    for row, (alpha, c) in zip(lines[1:], expected):
        problem = check_bounds_row(row, alpha, c)
        if problem:
            return fail(problem)
        fields = [float(f) for f in row.split(",")[2:5]]
        ratio_sum += fields[0] / min(fields[1], fields[2])
    return Verdict(True, True, ratio_sum / len(expected), None)
