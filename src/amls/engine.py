"""Approximate local search over abstract monotone set systems.

A monotone instance is a universe [n) plus a membership predicate over
subsets, closed under supersets and containing the full universe.  An
extension oracle, given (X, budget), returns Y with X u Y a member and
|Y| <= alpha * budget whenever some S with |S| <= budget and S u X a member
exists; it declares its ratio alpha, running-time base c, and success
probability.

Two entry points, both returning a RunReport whose solution is always a
member of the family:

  solve               randomized: for each target size k = 0 .. floor(n/alpha),
                      extend ceil(boost / p) uniform t-subsets X with the
                      oracle and keep the best; t minimizes c^(k-t/alpha) / p
                      with p the exact hypergeometric success probability.
                      Returns a solution of size <= alpha * OPT with
                      probability >= 1 - exp(-boost * success_prob).  With
                      RunConfig(deterministic=True), X ranges instead over a
                      weak (n, k, t, ceil(t/alpha))-set-intersection family,
                      t minimizing kappa * c^(k-t/alpha): an unconditional
                      alpha-approximation, gated by families.LIMIT.
  brute_force_search  no oracle at all: for each k test every member of an
                      (n, floor(alpha*k), k)-covering; unconditional
                      alpha-approximation by monotonicity, gated by
                      families.LIMIT.

One plan, _plan, decides each k's t and repetitions for all three modes,
and one loop, _run, executes its rows.  The modes differ only in the X
source (random t-subsets; X = {} alone where t = 0 outside randomized
mode; else a weak (n, k, t, ceil(t/alpha))-set-intersection family, which
in brute force, where ceil(t/alpha) = k, is the (n, t, k)-covering), the
extension (the oracle with budget k - ceil(t/alpha), or none in brute
force) and stopping (randomized stops at a k's first hit; the others visit
every X).  A k whose X all have more elements than the best member found
before it is skipped: every Z contains its X, so it cannot change the
report.  Only total_samples and warnings differ from visiting it.  In
brute force, where |X| = floor(alpha*k) grows with k, the first k that
hits is the last.  Every mode stops once the best member's size equals
opt_lower, the lower bound on OPT its rows have proven: a k searched
exhaustively (a brute covering, a deterministic family, or X = {} alone,
with a sure oracle and no broken contract) that misses proves OPT > k.
No later k can then find a smaller member, so only total_samples and
warnings fall; the solution could change only to another optimum of the
same size.

Reproducibility: in every mode the iteration for target size k draws
from, and hands its oracle, its own generator seeded with the string
"seed:k:0" (the trailing 0 keeps reports identical to earlier releases),
so a skipped k changes no other k's draws.  Randomized mode stops at a k's
first qualifying hit; the result is the (size, lexicographic) minimum over
all k.  So identical (instance, oracle, RunConfig) produce bit-identical
reports.  The engine draws each X itself, with the getrandbits calls that
random.sample(range(n), t) makes, so each X, and the generator's state
after it, are those random.sample gives, without its per-draw overhead.

The families layer is imported only when a search first needs a family or
a covering, and the combinatorics layer (the cost model) only outside brute
force, by the package's one lazy-loading rule (``amls._lazy``).
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass

from . import _EXPORTS, _at_least_one, _lazy, _ratio

__all__ = _EXPORTS["engine"]

# build_covering has no caller here; perfbench/spans.py wraps it by name
_bind, __getattr__ = _lazy(
    globals(),
    {
        "combinatorics": ("argmin_t", "kappa", "select_t"),
        "families": ("build_covering", "build_intersection_family", "check_limit"),
    },
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
        _at_least_one("alpha", self.alpha)
        _at_least_one("c", self.c)
        if not 0.0 < self.success_prob <= 1.0:
            raise ValueError(f"success_prob must be in (0, 1], got {self.success_prob}")


class RunConfig(
    namedtuple("RunConfig", "seed boost max_repetitions deterministic stop_at_first")
):
    """Knobs for a solving run.

    seed names the run's random streams: each target size k, in every mode,
    has one generator seeded with "seed:k:0", which draws k's samples in
    randomized mode and is handed to the oracle.
    deterministic makes solve search families instead of samples.  boost,
    finite and >= 1, multiplies the baseline ceil(1/p) repetition count,
    pushing the per-k failure probability below exp(-boost * success_prob).
    max_repetitions, an int >= 1, caps the repetitions of each k that runs
    and needs more than one sample; a capped k records a warning, as its
    success guarantee degrades.  A k skipped because its samples cannot beat
    the best member is never capped.  stop_at_first returns at the first k
    whose iteration finds a set of size <= alpha * k instead of finishing
    the loop.  Every run stops anyway once its best is proven optimal
    (RunReport.opt_lower), which at alpha 1 in brute force and
    deterministic mode is that first hit; at alpha > 1 and in randomized
    mode, where a row with t >= 1 proves nothing, the flag still returns
    earlier.  Immutable; validated on construction.
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
        _at_least_one("boost", boost)
        cap = max_repetitions
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 1):
            raise ValueError(f"max_repetitions must be an int >= 1, got {cap!r}")
        return super().__new__(cls, seed, boost, cap, deterministic, stop_at_first)


class RunReport(
    namedtuple(
        "RunReport",
        "instance n alpha c mode solution size k_found total_samples seed warnings"
        " opt_lower elapsed",
    )
):
    """Outcome of one solving run.

    k_found is the loop index whose iteration produced the final solution,
    or -1 if nothing smaller than the full universe was found.
    total_samples counts the X handled over all k; a k whose X all have
    more elements than the best member found before it is skipped, and a k
    after the run proved its best optimal is not reached, so neither adds
    any.  warnings names each k whose repetitions were capped and each k
    on which the oracle broke the contract: it returned a Y with X u Y not
    a member or larger than alpha * k.  Such samples count as misses.
    opt_lower is a proven lower bound on OPT: 1 + the largest k whose
    exhaustive row missed (brute force, deterministic mode, or t = 0, each
    with a sure oracle and no broken contract), or 0 if none did; the run
    stops once size equals it.  In brute force and deterministic mode, with
    an oracle that keeps its contract, size <= floor(alpha * opt_lower): the
    run certifies its own ratio.  The bound is only as good as the oracle's
    None.  elapsed is wall-clock seconds.  Neither of the last two is in
    the JSON form.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        data = {
            name: getattr(self, name)
            for name in self._fields
            if name not in ("opt_lower", "elapsed")
        }
        return dict(data, solution=list(self.solution), warnings=list(self.warnings))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


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


def _plan(n: int, alpha, mode: str, ext: ExtensionOracle | None, boost):
    """One _Row(k, t, r, alpha_k, reps) per target size k = 0 .. floor(n/alpha).

    t is select_t's sample size (mode "randomized"), the argmin_t weighing
    c^(k - t/alpha) by kappa ("deterministic") or alpha_k = floor(alpha*k)
    ("brute"); r = ceil(t/alpha) leaves the oracle the budget k - r.  reps
    is ceil(boost / p) in randomized mode, and 1 elsewhere or where one
    sample decides k: where alpha_k >= n, the universe the run falls back
    to already qualifies, so no sample count can change the guarantee;
    where t = 0 and the oracle cannot fail, every sample is X = {} alike.
    Rows are made one k at a time: in randomized mode in ascending k, so a
    run that stops early plans no further; in the others from the largest
    k down, where a row with t >= 1 comes first, and each such row checks
    families.LIMIT, so a run over the limit plans no further either.
    Floors and ceilings are exact, on the int pairs alpha = num/den and
    boost = b_num/b_den of amls._ratio; only modes other than "brute" bind
    the combinatorics layer.  The deterministic factor is kappa's reduced
    int pair, read through this module's global (a wrapper installed there
    sees each call), so no plan builds a Fraction.
    """
    _at_least_one("alpha", alpha)
    (num, den), (b_num, b_den) = _ratio(alpha), _ratio(boost)
    if mode != "brute":
        _bind("combinatorics")
    ks = range(n * den // num + 1)
    for k in ks if mode == "randomized" else reversed(ks):
        alpha_k, reps = k * num // den, 1
        if mode == "brute":
            t = alpha_k
        elif mode == "deterministic":
            t = argmin_t(n, k, alpha, ext.c, lambda t, r: kappa(n, k, t, r))[0]
        else:
            cost = select_t(n, k, alpha, ext.c)
            t = cost.t
            if alpha_k < n and not (t == 0 and ext.success_prob == 1):
                # ceil(boost / p), exactly, on p's pair count / subsets
                reps = -(-b_num * cost.subsets // (b_den * cost.count))
        if t and mode != "randomized":
            _bind("families")
            check_limit(n, "brute-force search" if mode == "brute" else "deterministic mode")
        yield _Row(k, t, -(-t * den // num), alpha_k, reps)


def _run(
    inst: MonotoneInstance,
    alpha,
    mode: str,
    ext: ExtensionOracle | None = None,
    cfg: RunConfig = RunConfig(),
) -> RunReport:
    """Execute _plan's rows for mode ("randomized", "deterministic" or
    "brute", the one mode without ext); the one loop behind every search.

    Outside randomized mode the whole plan is made first, so families.LIMIT
    rejects the run before any oracle call, and its rows run in ascending k.
    Each X of a k is extended (or, in brute force, taken as is) and
    Z = X u Y becomes the best when |Z| <= alpha_k, Z is a member and Z is
    smaller.  The oracle returning None is a miss; any other Z is a broken
    contract, recorded as one warning for k.  Without an oracle a non-member
    is a plain miss.  Randomized mode reads no further X of a k after its
    first hit.  A k that searched exhaustively and missed raises opt_lower
    to k + 1, and the loop ends once the best's size is at most opt_lower.
    """
    start = time.perf_counter()
    n, membership = inst.n, inst.membership
    extend = None if ext is None else ext.extend
    rows = _plan(n, alpha, mode, ext, cfg.boost)
    if mode != "randomized":
        rows = reversed(list(rows))
    best, k_found, samples, warnings = (n, tuple(range(n))), -1, 0, []
    # a miss proves OPT > k where the row searched exhaustively: brute's
    # covering, a deterministic family, or X = {} alone, with a sure oracle
    sure = ext is None or ext.success_prob == 1
    opt_lower = 0
    for k, t, r, alpha_k, reps in rows:
        if t > best[0]:  # every Z contains its X, so none can beat the best
            continue
        if cfg.max_repetitions is not None and reps > cfg.max_repetitions:
            warnings.append(
                f"k={k}: repetitions capped at {cfg.max_repetitions} "
                f"(needed {reps}); success guarantee degraded"
            )
            reps = cfg.max_repetitions
        rng = random.Random(f"{cfg.seed}:{k}:0")
        if mode == "randomized":
            xs = _samples(rng, n, t, reps)
        elif t == 0:
            xs = (frozenset(),)
        else:  # brute's (n, t, k)-covering is this family, as there r = k
            xs = map(frozenset, build_intersection_family(n, k, t, r).members)
        budget, drawn, broken, hit = k - r, 0, 0, False
        for x in xs:
            drawn += 1
            z = x
            if extend is not None:
                y = extend(x, budget, rng)
                if y is None:
                    continue
                z = x.union(y)
            if len(z) <= alpha_k and membership(z):
                key = (len(z), tuple(sorted(z)))
                if key < best:
                    best, k_found = key, k
                hit = True
                if mode == "randomized":
                    break
            elif extend is not None:
                broken += 1
        samples += drawn
        if broken:
            warnings.append(f"k={k}: oracle broke its contract on {broken} of {drawn} samples")
        if cfg.stop_at_first and hit:
            break
        if not (hit or broken) and sure and (t == 0 or mode != "randomized"):
            opt_lower = k + 1
        if best[0] <= opt_lower:  # no later k can beat a proven optimum
            break
    return RunReport(
        instance=inst.label,
        n=n,
        alpha=float(alpha),
        c=None if ext is None else float(ext.c),
        mode=mode,
        solution=best[1],
        size=best[0],
        k_found=k_found,
        total_samples=samples,
        seed=cfg.seed,
        warnings=tuple(warnings),
        opt_lower=opt_lower,
        elapsed=time.perf_counter() - start,
    )


def solve(
    inst: MonotoneInstance, ext: ExtensionOracle, cfg: RunConfig = RunConfig()
) -> RunReport:
    """Approximate search with ext, randomized or, with cfg.deterministic, not.

    Randomized: for each k in [0, floor(n/alpha)], ceil(boost / p) uniform
    t-subsets X of the cost-minimizing size t, each extended with budget
    k - ceil(t/alpha), up to the k's first hit.  With boost = 1 the returned
    size is <= alpha * OPT with probability >= 1 - exp(-success_prob); boost
    multiplies the exponent.  Deterministic, which needs success_prob == 1:
    every member of a weak (n, k, t, ceil(t/alpha))-set-intersection family
    instead, so the alpha-approximation holds unconditionally; rejected
    before any oracle call if n exceeds families.LIMIT and some t >= 1.
    """
    if cfg.deterministic and ext.success_prob != 1.0:
        raise ValueError("deterministic mode needs an oracle with success_prob == 1")
    return _run(inst, ext.alpha, "deterministic" if cfg.deterministic else "randomized", ext, cfg)


def brute_force_search(inst: MonotoneInstance, alpha) -> RunReport:
    """Oracle-free approximate search through coverings.

    For each k tests every member of an (n, floor(alpha*k), k)-covering,
    the weak (n, k, floor(alpha*k), k)-set-intersection family, for
    membership; by monotonicity some member contains an optimum once
    k = OPT, so the result has size at most floor(alpha * OPT).  The first
    k that hits is the last: later members are larger than its hit.
    """
    return _run(inst, alpha, "brute")
