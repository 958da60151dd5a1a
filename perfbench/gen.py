"""Seeded instance generator for the benchmark.

Vertex-cover graphs come from the package's public ``gen_gnp`` and are
written in the DIMACS edge format; 3-hitting-set instances come from this
module's own random-triple generator and are written in the ``p hs3``
format.  Every instance is a pure function of its seed, so the same workload
seed gives the same files.  ``amls`` only ever sees these files and argv.
"""

from __future__ import annotations

import random
from itertools import combinations

from amls.problems import gen_gnp


def gnp_edges(n: int, p_edge: float, seed: int) -> list[tuple[int, int]]:
    """0-based edges of G(n, p_edge) drawn by the package's public generator."""
    return list(gen_gnp(n, p_edge, seed=seed).edges)


def random_triples(n: int, m: int, seed: int) -> list[tuple[int, int, int]]:
    """m distinct sorted 3-subsets of range(n), uniformly without replacement."""
    rng = random.Random(seed)
    return sorted(rng.sample(list(combinations(range(n), 3)), m))


def dimacs_text(n: int, edges: list[tuple[int, int]]) -> str:
    lines = [f"p edge {n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def hs3_text(n: int, sets: list[tuple[int, ...]]) -> str:
    lines = [f"p hs3 {n} {len(sets)}"]
    lines += ["s " + " ".join(str(v + 1) for v in s) for s in sets]
    return "\n".join(lines) + "\n"


def bounds_grid(rng: random.Random, n_alpha: int, n_c: int) -> tuple[list[str], list[str]]:
    """Distinct alpha in [1, 4] and c in [1.01, 1024], written with at most
    five significant digits so that ``amls bounds`` echoes them exactly."""
    alphas = sorted({f"{rng.uniform(1.0, 4.0):.4f}" for _ in range(2 * n_alpha)}, key=float)
    cs = sorted({f"{rng.uniform(1.01, 1024.0):.5g}" for _ in range(2 * n_c)}, key=float)
    return rng.sample(alphas, n_alpha), rng.sample(cs, n_c)
