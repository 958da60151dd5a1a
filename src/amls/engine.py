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
                      (n, floor(alpha*k), k)-covering, up to the first k
                      that hits; unconditional alpha-approximation by
                      monotonicity, gated by families.LIMIT.

One plan, _plan, decides each k's t and repetitions for all three modes;
the runners only execute its rows.  Both search modes pick t with the same
combinatorics.argmin_t; they differ only in the factor it weighs
c^(k - t/alpha) by (1/p or kappa).

All three keep one run state, _Search, that owns the running best, the
sample count, the warnings and the clock.  Its run_k is the one place an X
is extended, checked (|X u Y| <= floor(alpha*k) and membership), offered
to the best and counted.  The modes differ only in the X source (random
t-subsets, family members, covering members), the extension (the oracle
with budget k - ceil(t/alpha), or none in brute force) and stopping
(randomized stops at its first hit; the others visit every X).  Before a k
builds a family or covering, draws a sample or records a warning, each
mode asks _Search.can_improve whether that k's X are small enough to
matter: every Z contains its X, so a k whose X all have more elements than
the best member cannot change the report, and it is skipped.  Only
total_samples and warnings differ from visiting it (in deterministic mode,
whose k's share one generator, for an oracle whose answers do not depend
on it, as with every shipped oracle).  In brute force, where |X| =
floor(alpha*k) grows with k, the first k that hits is the last.

Reproducibility: the iteration for target size k draws from one generator
seeded with the string "seed:k:0" (the trailing 0 keeps reports identical
to earlier releases) and stops at its first qualifying hit; the result is
the (size, lexicographic) minimum over all k.  So identical (instance,
oracle, RunConfig) produce bit-identical reports.  The engine draws each X
itself, with the generator's getrandbits calls that
random.sample(range(n), t) makes, so each X, and the generator's state
after it, are those random.sample gives, without its per-draw overhead.

The families layer is imported only when a search first needs a family or
a covering, by the package's one lazy-loading rule (``amls._lazy``).
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

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
    extend: Callable[[frozenset, int, random.Random], frozenset | None]

    def __post_init__(self) -> None:
        if not 1.0 <= float(self.alpha) < math.inf:
            raise ValueError(f"alpha must be finite and >= 1, got {self.alpha}")
        if not 1.0 <= float(self.c) < math.inf:
            raise ValueError(f"c must be finite and >= 1, got {self.c}")
        if not 0.0 < self.success_prob <= 1.0:
            raise ValueError(f"success_prob must be in (0, 1], got {self.success_prob}")


class RunConfig(
    namedtuple("RunConfig", "seed boost max_repetitions deterministic stop_at_first")
):
    """Knobs for a solving run.

    seed names the run's random streams: randomized mode draws the samples
    for target size k from a generator seeded with "seed:k:0", and
    deterministic mode hands its oracle one seeded "seed:deterministic".
    deterministic makes solve run run_deterministic; run_randomized rejects
    it.  boost, finite and >= 1, multiplies the baseline ceil(1/p)
    repetition count, pushing the per-k failure probability below
    exp(-boost * success_prob).  max_repetitions, an int >= 1, caps the
    repetitions of each k that runs and needs more than one sample; a
    capped k records a warning, as its success guarantee degrades.  A k
    skipped because its samples cannot beat the best member is never
    capped.  stop_at_first returns at the first k whose iteration finds a
    set of size <= alpha * k instead of finishing the loop.  Immutable;
    validated on construction.
    """

    __slots__ = ()

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __new__(
        cls,
        seed: int = 0,
        boost: float = 3.0,
        max_repetitions: int | None = None,
        deterministic: bool = False,
        stop_at_first: bool = False,
    ):
        if not 1.0 <= boost < math.inf:
            raise ValueError(f"boost must be finite and >= 1, got {boost}")
        cap = max_repetitions
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 1):
            raise ValueError(f"max_repetitions must be an int >= 1, got {cap!r}")
        return super().__new__(cls, seed, boost, cap, deterministic, stop_at_first)


class RunReport(
    namedtuple(
        "RunReport",
        "instance n alpha c mode solution size k_found total_samples seed warnings elapsed",
    )
):
    """Outcome of one solving run.

    k_found is the loop index whose iteration produced the final solution,
    or -1 if nothing smaller than the full universe was found.
    total_samples counts the X handled over all k; a k whose X all have
    more elements than the best member found before it is skipped and adds
    none.  warnings names each k whose repetitions were capped and each k
    on which the oracle broke the contract: it returned a Y with X u Y not
    a member or larger than alpha * k.  Such samples count as misses.
    elapsed is wall-clock seconds and is excluded from the JSON form.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        data = {name: getattr(self, name) for name in self._fields if name != "elapsed"}
        return dict(data, solution=list(self.solution), warnings=list(self.warnings))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


class _Search:
    """One run's state: its best member and k_found, samples, warnings and clock.

    The best is the minimum by (size, lexicographic order of the sorted
    elements); it starts at the full universe [n) with k_found = -1.
    """

    def __init__(self, inst: MonotoneInstance) -> None:
        self.inst = inst
        self.key = (inst.n, tuple(range(inst.n)))
        self.k_found = -1
        self.samples = 0
        self.warnings: list[str] = []
        self.start = time.perf_counter()

    def can_improve(self, x_size: int) -> bool:
        """Whether a k whose X all have x_size elements can change the best:
        every Z contains its X, so none has fewer than x_size elements."""
        return x_size <= self.key[0]

    def run_k(self, k, alpha_k, xs, extend=None, stop_on_hit=False) -> bool:
        """Run every X in xs for target size k; return whether one hit.

        The one place an X is handled: Z = X u extend(X) becomes the best
        when |Z| <= alpha_k, Z is a member and Z is smaller.  extend returning
        None is a miss; any other Z is a broken oracle contract, recorded as
        one warning for k.  With no extend, Y = X and a non-member is a plain
        miss.  With stop_on_hit, xs is read no further after the first hit.
        """
        membership = self.inst.membership
        samples = broken = 0
        hit = False
        for x in xs:
            samples += 1
            y = x if extend is None else extend(x)
            if y is None:
                continue
            z = x.union(y)
            if len(z) <= alpha_k and membership(z):
                key = (len(z), tuple(sorted(z)))
                if key < self.key:
                    self.key, self.k_found = key, k
                hit = True
                if stop_on_hit:
                    break
            else:
                broken += 1
        self.samples += samples
        if broken and extend is not None:
            self.warnings.append(
                f"k={k}: oracle broke its contract on {broken} of {samples} samples"
            )
        return hit

    def report(self, mode, alpha, c, seed) -> RunReport:
        """The run's report, with the best member as its solution."""
        return RunReport(
            instance=self.inst.label,
            n=self.inst.n,
            alpha=float(alpha),
            c=c,
            mode=mode,
            solution=self.key[1],
            size=self.key[0],
            k_found=self.k_found,
            total_samples=self.samples,
            seed=seed,
            warnings=tuple(self.warnings),
            elapsed=time.perf_counter() - self.start,
        )


def _samples(rng: random.Random, n: int, t: int, reps: int):
    """reps uniform t-subsets of [n), drawn as frozenset(rng.sample(range(n), t)).

    Each X and the generator's state after it are those of random.sample
    (the same code on Python 3.10 to 3.13), whose getrandbits calls this
    repeats one for one without its per-draw _randbelow call: its pool
    method while n is at most its set-size threshold, its set method above.
    """
    getrandbits = rng.getrandbits
    setsize = 21
    if t > 5:
        setsize += 4 ** math.ceil(math.log(t * 3, 4))
    if n <= setsize:  # each pick swaps out of the pool's live front
        steps = [(m, m.bit_length()) for m in range(n, n - t, -1)]
        for _ in range(reps):
            pool = list(range(n))
            for m, width in steps:
                j = getrandbits(width)
                while j >= m:
                    j = getrandbits(width)
                pool[j], pool[m - 1] = pool[m - 1], pool[j]
            yield frozenset(pool[n - t :])
    else:  # redraw out-of-range and repeated picks
        width = n.bit_length()
        for _ in range(reps):
            x = set()
            for _ in range(t):
                j = getrandbits(width)
                while j >= n or j in x:
                    j = getrandbits(width)
                x.add(j)
            yield frozenset(x)


_Row = namedtuple("_Row", "k t r alpha_k reps")


def _plan(n: int, alpha, mode: str, ext: ExtensionOracle | None = None, boost=None):
    """One _Row(k, t, r, alpha_k, reps) per target size k = 0 .. floor(n/alpha).

    t is select_t's sample size (mode "randomized"), the argmin_t weighing
    c^(k - t/alpha) by kappa ("deterministic") or alpha_k = floor(alpha*k)
    ("brute"); r = ceil(t/alpha) leaves the oracle the budget k - r.  reps
    is ceil(boost / p) in randomized mode, and 1 elsewhere or where one
    sample decides k: where alpha_k >= n, the universe the run falls back
    to already qualifies, so no sample count can change the guarantee;
    where t = 0 and the oracle cannot fail, every sample is X = {} alike.
    Rows are made one k at a time, so a run that stops early plans no further.
    """
    a = exact_ratio(alpha)
    if boost is not None:
        boost = exact_ratio(boost)
    for k in range(math.floor(Fraction(n) / a) + 1):
        alpha_k, reps = math.floor(a * k), 1
        if mode == "brute":
            t = alpha_k
        elif mode == "deterministic":
            t = argmin_t(
                n, k, a, ext.c, lambda t: kappa(n, k, t, math.ceil(t / a)).as_integer_ratio()
            )
        else:
            cost = select_t(n, k, alpha, ext.c)
            t = cost.t
            if alpha_k < n and not (t == 0 and ext.success_prob == 1):
                reps = math.ceil(boost / cost.p)
        yield _Row(k, t, math.ceil(t / a), alpha_k, reps)


def run_randomized(
    inst: MonotoneInstance, ext: ExtensionOracle, cfg: RunConfig = RunConfig()
) -> RunReport:
    """Randomized approximate search (sampling mode).

    For each k in [0, floor(n/alpha)] picks the cost-minimizing sample size,
    runs ceil(boost / p) sample-then-extend attempts (none when that size
    exceeds the best member found so far), and finally returns
    the smallest member seen across all k (the full universe if none beat
    it).  With boost = 1 the returned size is <= alpha * OPT with
    probability >= 1 - exp(-success_prob); boost multiplies the exponent.
    """
    if cfg.deterministic:
        raise ValueError("cfg.deterministic is set; use run_deterministic")
    run = _Search(inst)
    for k, t, r, alpha_k, reps in _plan(inst.n, ext.alpha, "randomized", ext, cfg.boost):
        if not run.can_improve(t):
            continue
        if cfg.max_repetitions is not None and reps > cfg.max_repetitions:
            run.warnings.append(
                f"k={k}: repetitions capped at {cfg.max_repetitions} "
                f"(needed {reps}); success guarantee degraded"
            )
            reps = cfg.max_repetitions
        budget = k - r
        rng = random.Random(f"{cfg.seed}:{k}:0")
        xs = _samples(rng, inst.n, t, reps)
        hit = run.run_k(k, alpha_k, xs, lambda x: ext.extend(x, budget, rng), stop_on_hit=True)
        if cfg.stop_at_first and hit:
            break
    return run.report("randomized", ext.alpha, float(ext.c), cfg.seed)


def run_deterministic(
    inst: MonotoneInstance, ext: ExtensionOracle, cfg: RunConfig = RunConfig()
) -> RunReport:
    """Family-driven derandomized search; requires a deterministic oracle.

    For each k, iterates the sample step over every member of a weak
    (n, k, t, ceil(t/alpha))-set-intersection family instead of sampling, so
    the alpha-approximation guarantee holds unconditionally.  A k with t = 0
    iterates X = {} alone, and a k whose t exceeds the best member found so
    far builds no family.  The whole plan is made first, and the run is
    rejected before any oracle call if n exceeds families.LIMIT and some
    t >= 1 needs a family; at c == 1 every t is 0, so any n runs.
    """
    if ext.success_prob != 1.0:
        raise ValueError("deterministic mode needs an oracle with success_prob == 1")
    run = _Search(inst)
    rows = list(_plan(inst.n, ext.alpha, "deterministic", ext))
    if any(row.t for row in rows):
        _bind("families")
        check_limit(inst.n, "deterministic mode")
    rng = random.Random(f"{cfg.seed}:deterministic")

    for k, t, r, alpha_k, _ in rows:
        if not run.can_improve(t):
            continue
        xs = (frozenset(),)
        if t:
            xs = map(frozenset, build_intersection_family(inst.n, k, t, r).members)
        budget = k - r
        hit = run.run_k(k, alpha_k, xs, lambda x: ext.extend(x, budget, rng))
        if cfg.stop_at_first and hit:
            break
    return run.report("deterministic", ext.alpha, float(ext.c), cfg.seed)


def brute_force_search(inst: MonotoneInstance, alpha) -> RunReport:
    """Oracle-free approximate search through coverings.

    For each k tests every member of an (n, floor(alpha*k), k)-covering for
    membership; by monotonicity some member contains an optimum once
    k = OPT, so the result has size at most floor(alpha * OPT).  The first
    k that hits is the last: later members are larger than its hit.  Y is
    always empty, so a non-member is a plain miss, not a broken contract.
    """
    a = exact_ratio(alpha)
    if a < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    _bind("families")
    check_limit(inst.n, "brute-force search")
    run = _Search(inst)
    for k, t, _, alpha_k, _ in _plan(inst.n, a, "brute"):
        if not run.can_improve(t):  # and no later k can: t = floor(alpha*k) grows
            break
        run.run_k(k, alpha_k, map(frozenset, build_covering(inst.n, t, k).members))
    return run.report("brute", a, None, 0)


def solve(
    inst: MonotoneInstance, ext: ExtensionOracle, cfg: RunConfig = RunConfig()
) -> RunReport:
    """Dispatch to the mode selected by cfg.deterministic."""
    if cfg.deterministic:
        return run_deterministic(inst, ext, cfg)
    return run_randomized(inst, ext, cfg)
