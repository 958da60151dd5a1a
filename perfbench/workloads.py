"""The benchmark's workloads: seeded op streams through the ``amls`` CLI.

Op j of a run with seed s is a pure function of (s, workload, j): its
instance file, its argv and the checker for its output.  Each workload
cycles through a fixed mix of op kinds, so every run sees the same mix.

``LAYERS`` records, per workload, which per-layer metric should move which
end-to-end metric there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import check
import gen


@dataclass(frozen=True)
class Op:
    """One ``amls`` invocation: argv (the instance path is appended as
    ``--input PATH`` when text is set) and the checker of its stdout."""

    argv: tuple[str, ...]
    text: Optional[str]
    checker: Callable[[str], check.Verdict]


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[Callable[[random.Random], Op], ...]
    trace_ops: int  # ops in a traced run: a fixed count, so counts repeat exactly

    def op(self, seed: int, j: int) -> Op:
        rng = random.Random(f"{seed}:{self.name}:{j}")
        return self.kinds[j % len(self.kinds)](rng)


def _vc(n: int, p_edge: float, rng: random.Random) -> tuple[str, int, list[int]]:
    edges = gen.gnp_edges(n, p_edge, rng.getrandbits(32))
    return gen.dimacs_text(n, edges), n, [(1 << u) | (1 << v) for u, v in edges]


def _hs3(n: int, m: int, rng: random.Random) -> tuple[str, int, list[int]]:
    sets = gen.random_triples(n, m, rng.getrandbits(32))
    return gen.hs3_text(n, sets), n, [sum(1 << v for v in s) for s in sets]


def _check_exact(text, n, sets, alpha, probabilistic, stdout):
    reference = check.min_hitting_set(n, sets)
    return check.check_solution(stdout, text, alpha, reference, probabilistic)


def _check_lp(text, n, sets, stdout):
    return check.check_solution(stdout, text, 2.0, check.lp_lower_bound(n, sets), False)


def _solve_op(problem, instance, rng, *flags, alpha=1.0, probabilistic=True) -> Op:
    text, n, sets = instance
    argv = ("solve", "--problem", problem, "--seed", str(rng.getrandbits(16)), *flags, "--json", "-")
    return Op(argv, text, partial(_check_exact, text, n, sets, alpha, probabilistic))


# The randomized exact solves run at boost 9, not the default 3.  A solve
# misses alpha * OPT with probability <= exp(-boost); at boost 3 about one
# op in 200 missed, so a run failed now and then.  The repetitions per k
# scale with the boost, so a miss rate r at boost 3 becomes r ** 3 at
# boost 9: no miss is expected in any number of runs this benchmark makes.
# The instances are a size smaller than at boost 3 (n = 22, 20, 50 rather
# than 24, 22, 60), so an op still takes about a second and a run holds
# enough ops for a steady median.
RAND_BOOST = ("--boost", "9")


def vc22(rng):
    return _solve_op("vc", _vc(22, 0.3, rng), rng, *RAND_BOOST)


def hs20(rng):
    return _solve_op("hs3", _hs3(20, 45, rng), rng, *RAND_BOOST)


def vc50_alpha2(rng):
    return _solve_op("vc", _vc(50, 0.05, rng), rng, "--alpha", "2", *RAND_BOOST, alpha=2.0)


def _brute_op(problem, instance) -> Op:
    text, n, sets = instance
    argv = ("brute", "--problem", problem, "--alpha", "1.5", "--json", "-")
    return Op(argv, text, partial(_check_exact, text, n, sets, 1.5, False))


def brute_vc14(rng):
    return _brute_op("vc", _vc(14, 0.3, rng))


def brute_hs14(rng):
    return _brute_op("hs3", _hs3(14, 30, rng))


def det_vc14(rng):
    return _solve_op("vc", _vc(14, 0.3, rng), rng, "--deterministic", probabilistic=False)


def det_hs14(rng):
    return _solve_op("hs3", _hs3(14, 30, rng), rng, "--deterministic", probabilistic=False)


def matching200(rng):
    text, n, sets = _vc(200, 0.1, rng)
    argv = ("solve", "--problem", "vc", "--oracle", "matching", "--seed", str(rng.getrandbits(16)), "--json", "-")
    return Op(argv, text, partial(_check_lp, text, n, sets))


def bounds_grid(rng):
    alphas, cs = gen.bounds_grid(rng, 60, 60)
    argv = ("bounds", "--alpha", ",".join(alphas), "--c", ",".join(cs))
    return Op(
        argv, None, partial(check.check_bounds, alphas=[float(a) for a in alphas], cs=[float(c) for c in cs])
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rand-exact", (vc22, hs20, vc50_alpha2), 6),
        # det_hs14 sits between det_vc14 and the brute ops in op time;
        # equal thirds keep the median op inside its cluster
        Workload(
            "cold-families",
            (brute_vc14, det_vc14, det_hs14, brute_hs14, det_vc14, det_hs14),
            6,
        ),
        # two matching solves per bounds op keep the median op a matching
        # solve; the bounds ops show in ops_per_s
        Workload("arith", (matching200, matching200, bounds_grid), 12),
    )
}

LAYERS = {
    "rand-exact": {
        "problems.extend.s": "op_s.p50, ops_per_s",
        "problems.extend.calls": "op_s.p50",
        "engine.self_s": "op_s.p50 (alpha=2 ops)",
    },
    "cold-families": {
        "families.build_s": "op_s.p50, peak_rss_mb",
        "families.members": "op_s.p50",
        "problems.membership.s": "ops_per_s (brute checks)",
        "cli.self_s": "op_s.p50 (det ops)",
    },
    "arith": {
        "combinatorics.select_t.s": "op_s.p50 (matching ops)",
        "engine.self_s": "op_s.p50 (matching ops)",
        "problems.extend.s": "none: the oracle is cheap here",
        "bounds.amls_bound_s": "ops_per_s (bounds ops)",
        "bounds.self_s": "ops_per_s (bounds ops)",
        "cli.self_s": "op_s.p50, setup_s",
    },
}
