"""Approximate local search over abstract monotone set systems.

A monotone instance is a universe [n) plus a membership predicate over
subsets, closed under supersets and containing the full universe.  An
extension oracle, given (X, budget), returns Y with X u Y a member and
|Y| <= alpha * budget whenever some S with |S| <= budget and S u X a member
exists; it declares its ratio alpha, running-time base c, and success
probability.

Three solving modes, all returning a RunReport whose solution is always a
member of the family:

  run_randomized      sample a uniform t-subset X, extend with the oracle,
                      keep the best of ceil(boost / p) repetitions per
                      target size k, for k = 0 .. floor(n/alpha); the sample
                      size t per k minimizes c^(k-t/alpha) / p(n,k,t) where
                      p is the exact hypergeometric success probability.
                      Returns a solution of size <= alpha * OPT with
                      probability >= 1 - exp(-boost * success_prob).
  run_deterministic   replace sampling with iteration over a weak
                      (n, k, t, ceil(t/alpha))-set-intersection family, with
                      t minimizing kappa(n,k,t,ceil(t/alpha)) * c^(k-t/alpha);
                      unconditional alpha-approximation, gated by
                      families.LIMIT when some k needs a family.
  brute_force_search  no oracle at all: for each k test every member of an
                      (n, floor(alpha*k), k)-covering; unconditional
                      alpha-approximation by monotonicity, gated by
                      families.LIMIT.

Both search modes pick t with the same combinatorics.argmin_t; they differ
only in the factor it weighs c^(k - t/alpha) by (1/p or kappa).

All three run each k through _run_k, the one place an X is drawn from its
source, extended, checked (|X u Y| <= floor(alpha*k) and membership),
offered to the running best and counted.  The modes differ only in the X
source (random t-subsets, family members, covering members), the
extension (the oracle with budget k - ceil(t/alpha), or Y = {} in brute
force) and stopping (randomized stops at its first hit; the others visit
every X).

Reproducibility: the iteration for target size k draws from one generator
seeded with the string "seed:k:0" (the trailing 0 keeps reports identical
to earlier releases) and stops at its first qualifying hit; the result is
the (size, lexicographic) minimum over all k.  So identical (instance,
oracle, RunConfig) produce bit-identical reports.

The families layer is imported only when a search first needs a family or
a covering, by the package's one lazy-loading rule (``amls._lazy``).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Optional

from . import _lazy
from .combinatorics import argmin_t, exact_ratio, kappa, select_t

__all__ = [
    "MonotoneInstance",
    "ExtensionOracle",
    "RunConfig",
    "RunReport",
    "run_randomized",
    "run_deterministic",
    "brute_force_search",
    "solve",
    "success_rate",
    "exhaustive_minimum",
]

_bind, __getattr__ = _lazy(
    globals(), {"families": ("build_covering", "build_intersection_family", "check_limit")}
)


@dataclass(frozen=True)
class MonotoneInstance:
    """Universe size plus a membership test; label is for reports only.

    membership must be monotone (S a member implies every superset is) and
    true on the full universe.  The engine assumes this; problem plugins are
    spot-checked by their own tests.
    """

    n: int
    membership: Callable[[frozenset], bool]
    label: str = "instance"


@dataclass(frozen=True)
class ExtensionOracle:
    """A parameterized approximate extension algorithm with declared (alpha, c).

    Contract: if some S with S u X a member and |S| <= k exists, extend(X, k,
    rng) returns, with probability at least success_prob, a set Y with
    Y u X a member and |Y| <= alpha * k.  Returning None signals failure.
    """

    alpha: float
    c: float
    success_prob: float
    extend: Callable[[frozenset, int, random.Random], Optional[frozenset]]
    name: str = "oracle"

    def __post_init__(self) -> None:
        if not float(self.alpha) >= 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if not float(self.c) >= 1.0:
            raise ValueError(f"c must be >= 1, got {self.c}")
        if not 0.0 < self.success_prob <= 1.0:
            raise ValueError(f"success_prob must be in (0, 1], got {self.success_prob}")


@dataclass(frozen=True)
class RunConfig:
    """Knobs for a solving run.

    seed names the run's random streams: randomized mode draws the samples
    for target size k from a generator seeded with "seed:k:0", and
    deterministic mode hands its oracle one seeded "seed:deterministic".
    deterministic makes solve run run_deterministic; run_randomized rejects
    it.  boost multiplies the baseline ceil(1/p) repetition count, pushing
    the per-k failure probability below exp(-boost * success_prob).
    max_repetitions caps the per-k repetitions (a warning is recorded and the
    success guarantee degrades).  stop_at_first returns at the first k
    whose iteration finds a set of size <= alpha * k instead of finishing
    the loop.
    """

    seed: int = 0
    boost: float = 3.0
    max_repetitions: Optional[int] = None
    deterministic: bool = False
    stop_at_first: bool = False

    def __post_init__(self) -> None:
        if not self.boost >= 1.0:
            raise ValueError(f"boost must be >= 1, got {self.boost}")
        if self.max_repetitions is not None and self.max_repetitions < 1:
            raise ValueError(f"max_repetitions must be >= 1, got {self.max_repetitions}")


@dataclass(frozen=True)
class RunReport:
    """Outcome of one solving run.

    k_found is the loop index whose iteration produced the final solution,
    or -1 if nothing smaller than the full universe was found.  warnings
    names each k whose repetitions were capped and each k on which the
    oracle broke its contract: it returned a Y with X u Y not a member or
    larger than alpha * k.  Such samples count as misses.  elapsed is
    wall-clock seconds and is excluded from the JSON form.
    """

    instance: str
    n: int
    alpha: float
    c: Optional[float]
    mode: str
    solution: tuple[int, ...]
    size: int
    k_found: int
    total_samples: int
    seed: int
    warnings: tuple[str, ...]
    elapsed: float

    def to_json_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "elapsed"}
        return dict(data, solution=list(self.solution), warnings=list(self.warnings))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


class _Best:
    """Running minimum by (size, lexicographic order of the sorted elements).

    It starts at the full universe [n) with k = -1.
    """

    def __init__(self, n: int) -> None:
        self.key = (n, tuple(range(n)))
        self.k = -1

    def offer(self, solution: frozenset, k: int) -> None:
        key = (len(solution), tuple(sorted(solution)))
        if key < self.key:
            self.key = key
            self.k = k

    def report(self, inst, mode, alpha, c, samples, seed, warnings, start) -> RunReport:
        """The run's report, with this minimum as its solution."""
        return RunReport(
            instance=inst.label,
            n=inst.n,
            alpha=float(alpha),
            c=c,
            mode=mode,
            solution=self.key[1],
            size=self.key[0],
            k_found=self.k,
            total_samples=samples,
            seed=seed,
            warnings=tuple(warnings),
            elapsed=time.perf_counter() - start,
        )


def _run_k(best, k, alpha_k, xs, extend, membership, stop_on_hit):
    """Run every X in xs for target size k; return (samples, hit, broken).

    The one place an X is handled: Z = X u extend(X) is offered to best when
    |Z| <= alpha_k and Z is a member.  extend returning None is a miss; any
    other Z is a broken oracle contract.  With stop_on_hit, xs is read no
    further after the first hit.
    """
    samples = broken = 0
    hit = False
    for x in xs:
        samples += 1
        y = extend(x)
        if y is None:
            continue
        z = x.union(y)
        if len(z) <= alpha_k and membership(z):
            best.offer(z, k)
            hit = True
            if stop_on_hit:
                break
        else:
            broken += 1
    return samples, hit, broken


def _contract_warning(k: int, broken: int, samples: int) -> str:
    return f"k={k}: oracle broke its contract on {broken} of {samples} samples"


def run_randomized(
    inst: MonotoneInstance, ext: ExtensionOracle, cfg: RunConfig = RunConfig()
) -> RunReport:
    """Randomized approximate search (sampling mode).

    For each k in [0, floor(n/alpha)] picks the cost-minimizing sample size,
    runs ceil(boost / p) sample-then-extend attempts, and finally returns
    the smallest member seen across all k (the full universe if none beat
    it).  With boost = 1 the returned size is <= alpha * OPT with
    probability >= 1 - exp(-success_prob); boost multiplies the exponent.
    """
    if cfg.deterministic:
        raise ValueError("cfg.deterministic is set; use run_deterministic")
    start = time.perf_counter()
    alpha = exact_ratio(ext.alpha)
    best = _Best(inst.n)
    warnings: list[str] = []
    total_samples = 0
    boost = exact_ratio(cfg.boost)
    population = range(inst.n)

    for k in range(math.floor(Fraction(inst.n) / alpha) + 1):
        cost = select_t(inst.n, k, ext.alpha, ext.c)
        reps = math.ceil(boost / cost.p)
        if cfg.max_repetitions is not None and reps > cfg.max_repetitions:
            warnings.append(
                f"k={k}: repetitions capped at {cfg.max_repetitions} "
                f"(needed {reps}); success guarantee degraded"
            )
            reps = cfg.max_repetitions
        alpha_k = math.floor(alpha * k)
        # one sample decides k when a failed sample stands for the universe
        # (a hit here), or when X is always {} and the oracle cannot miss
        if alpha_k >= inst.n or (cost.t == 0 and ext.success_prob == 1):
            reps = 1
        budget = k - math.ceil(Fraction(cost.t) / alpha)
        rng = random.Random(f"{cfg.seed}:{k}:0")
        xs = (frozenset(rng.sample(population, cost.t)) for _ in range(reps))
        samples, hit, broken = _run_k(
            best, k, alpha_k, xs, lambda x: ext.extend(x, budget, rng), inst.membership, True
        )
        total_samples += samples
        if broken:
            warnings.append(_contract_warning(k, broken, samples))
        if cfg.stop_at_first and hit:
            break

    return best.report(
        inst, "randomized", ext.alpha, float(ext.c), total_samples, cfg.seed, warnings, start
    )


def run_deterministic(
    inst: MonotoneInstance, ext: ExtensionOracle, cfg: RunConfig = RunConfig()
) -> RunReport:
    """Family-driven derandomized search; requires a deterministic oracle.

    For each k, iterates the sample step over every member of a weak
    (n, k, t, ceil(t/alpha))-set-intersection family instead of sampling, so
    the alpha-approximation guarantee holds unconditionally.  A k with t = 0
    iterates X = {} alone.  Every k's t is chosen first, and the run is
    rejected before any oracle call if n exceeds families.LIMIT and some
    t >= 1 needs a family; at c == 1 every t is 0, so any n runs.
    """
    if ext.success_prob != 1.0:
        raise ValueError("deterministic mode needs an oracle with success_prob == 1")
    start = time.perf_counter()
    alpha = exact_ratio(ext.alpha)
    ts = []
    for k in range(math.floor(Fraction(inst.n) / alpha) + 1):
        t = argmin_t(
            inst.n,
            k,
            alpha,
            ext.c,
            lambda t: kappa(inst.n, k, t, math.ceil(t / alpha)).as_integer_ratio(),
        )
        ts.append(t)
    if any(ts):
        _bind("families")
        check_limit(inst.n, "deterministic mode")
    best = _Best(inst.n)
    warnings: list[str] = []
    total_samples = 0
    rng = random.Random(f"{cfg.seed}:deterministic")

    for k, t in enumerate(ts):
        r = math.ceil(t / alpha)
        members = ((),)
        if t:
            members = build_intersection_family(inst.n, k, t, r).members
        budget = k - r
        samples, hit, broken = _run_k(
            best, k, math.floor(alpha * k), map(frozenset, members),
            lambda x: ext.extend(x, budget, rng), inst.membership, False,
        )
        total_samples += samples
        if broken:
            warnings.append(_contract_warning(k, broken, samples))
        if cfg.stop_at_first and hit:
            break

    return best.report(
        inst, "deterministic", ext.alpha, float(ext.c), total_samples, cfg.seed, warnings, start
    )


def brute_force_search(inst: MonotoneInstance, alpha) -> RunReport:
    """Oracle-free approximate search through coverings.

    For each k tests every member of an (n, floor(alpha*k), k)-covering for
    membership; by monotonicity some member contains an optimum once
    k = OPT, so the result has size at most floor(alpha * OPT).  Y is always
    empty, so a non-member is a plain miss, not a broken contract.
    """
    a = exact_ratio(alpha)
    if a < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    _bind("families")
    check_limit(inst.n, "brute-force search")
    start = time.perf_counter()
    best = _Best(inst.n)
    checks = 0
    for k in range(math.floor(Fraction(inst.n) / a) + 1):
        alpha_k = math.floor(a * k)
        xs = map(frozenset, build_covering(inst.n, alpha_k, k).members)
        checks += _run_k(best, k, alpha_k, xs, lambda x: frozenset(), inst.membership, False)[0]
    return best.report(inst, "brute", a, None, checks, 0, (), start)


def solve(
    inst: MonotoneInstance, ext: ExtensionOracle, cfg: RunConfig = RunConfig()
) -> RunReport:
    """Dispatch to the mode selected by cfg.deterministic."""
    if cfg.deterministic:
        return run_deterministic(inst, ext, cfg)
    return run_randomized(inst, ext, cfg)


def exhaustive_minimum(inst: MonotoneInstance) -> int:
    """Optimum size by enumerating subsets in increasing size (small n only)."""
    for k in range(inst.n + 1):
        for combo in itertools.combinations(range(inst.n), k):
            if inst.membership(frozenset(combo)):
                return k
    raise ValueError("membership is false on the full universe; not monotone")


def success_rate(
    inst: MonotoneInstance,
    ext: ExtensionOracle,
    trials: int,
    cfg: RunConfig = RunConfig(),
    opt_size: Optional[int] = None,
) -> float:
    """Fraction of independently seeded runs returning size <= alpha * OPT.

    OPT is computed exhaustively when not supplied (guarded to n <= 20).
    Trial i runs with seed cfg.seed + i.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if opt_size is None:
        if inst.n > 20:
            raise ValueError("supply opt_size for instances with n > 20")
        opt_size = exhaustive_minimum(inst)
    alpha = exact_ratio(ext.alpha)
    successes = 0
    for i in range(trials):
        report = solve(inst, ext, replace(cfg, seed=cfg.seed + i))
        if Fraction(report.size) <= alpha * opt_size:
            successes += 1
    return successes / trials
