"""Engine behavior: guarantees, statistics, reproducibility, concurrency."""

import json
import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

import amls.engine as engine
from amls import families
from amls.combinatorics import exact_ratio, select_t
from amls.engine import (
    ExtensionOracle,
    MonotoneInstance,
    RunConfig,
    brute_force_search,
    solve,
)
from amls.families import LimitExceededError
from amls.problems import (
    Graph,
    gen_gnp,
    hs3_exact_oracle,
    hs3_system,
    Hypergraph3,
    vc_exact_oracle,
    vc_matching_oracle,
    vc_system,
)
from conftest import exhaustive_hs_opt, exhaustive_vc_opt, is_cover

P3 = Graph(3, ((0, 1), (1, 2)))
K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
C5 = Graph(5, tuple((i, (i + 1) % 5) for i in range(5)))
EMPTY = Graph(4, ())


class TestRandomized:
    def test_empty_instance(self):
        rep = solve(vc_system(EMPTY), vc_exact_oracle(EMPTY), RunConfig(seed=1))
        assert rep.solution == ()
        assert rep.size == 0
        assert rep.k_found == 0

    def test_path_finds_the_center(self):
        rep = solve(vc_system(P3), vc_exact_oracle(P3), RunConfig(seed=7))
        assert rep.size == 1
        assert rep.solution == (1,)

    def test_triangle_with_matching_oracle(self):
        rep = solve(vc_system(K3), vc_matching_oracle(K3), RunConfig(seed=3))
        assert rep.size == 2

    def test_output_is_always_a_member(self):
        for seed in range(15):
            g = gen_gnp(9, 0.35, seed=100 + seed)
            inst = vc_system(g)
            rep = solve(inst, vc_exact_oracle(g), RunConfig(seed=seed))
            assert inst.membership(frozenset(rep.solution))
            assert rep.size == len(rep.solution) <= g.n

    def test_hitting_set_randomized(self):
        rng = random.Random(17)
        for _ in range(10):
            n = 8
            sets = tuple(
                tuple(sorted(rng.sample(range(n), rng.choice((1, 2, 3)))))
                for _ in range(rng.randrange(3, 10))
            )
            h = Hypergraph3(n, sets)
            inst = hs3_system(h)
            rep = solve(inst, hs3_exact_oracle(h), RunConfig(seed=rng.randrange(10**6)))
            assert inst.membership(frozenset(rep.solution))
            assert rep.size >= exhaustive_hs_opt(h)

    def test_repetition_cap_records_warning(self):
        g = gen_gnp(12, 0.7, seed=5)
        inst = vc_system(g)
        rep = solve(inst, vc_exact_oracle(g), RunConfig(seed=2, max_repetitions=1))
        assert rep.warnings
        assert inst.membership(frozenset(rep.solution))
        # the matching oracle is sure and picks t = 0 at every k, so one
        # sample decides each k and a cap of 2 degrades none of them
        g = gen_gnp(30, 0.1, seed=3)
        cfg = RunConfig(seed=1, max_repetitions=2)
        rep = solve(vc_system(g), vc_matching_oracle(g), cfg)
        assert rep.warnings == ()
        assert rep.total_samples == 16

    def test_stop_at_first_still_returns_member(self):
        g = gen_gnp(10, 0.4, seed=9)
        inst = vc_system(g)
        rep = solve(inst, vc_exact_oracle(g), RunConfig(seed=4, stop_at_first=True))
        assert inst.membership(frozenset(rep.solution))
        assert rep.size <= g.n
        # with alpha = 1 a hit can only happen at k >= OPT
        assert rep.k_found >= exhaustive_vc_opt(g) or rep.k_found == -1


def _success_rate(g: Graph, ext: ExtensionOracle, trials: int, cfg: RunConfig) -> float:
    """Fraction of solves of vertex cover on g, trial i seeded cfg.seed + i,
    returning size <= alpha * OPT, OPT by enumeration."""
    inst, bound = vc_system(g), exact_ratio(ext.alpha) * exhaustive_vc_opt(g)
    sizes = [solve(inst, ext, cfg._replace(seed=cfg.seed + i)).size for i in range(trials)]
    return sum(size <= bound for size in sizes) / trials


class TestStatistics:
    def test_boost_three_success_rate(self):
        # dense graph so the optimum sits above n*delta* and sampling is real
        g = gen_gnp(12, 0.55, seed=21)
        fraction = _success_rate(g, vc_exact_oracle(g), 150, RunConfig(seed=1000, boost=3.0))
        assert fraction >= 0.9

    def test_boost_one_success_rate(self):
        g = gen_gnp(10, 0.5, seed=22)
        fraction = _success_rate(g, vc_exact_oracle(g), 300, RunConfig(seed=2000, boost=1.0))
        assert fraction >= 0.5  # theory: >= 1 - 1/e ~ 0.632

    def test_flaky_oracle_with_amplification(self):
        # oracle fails half the time; boost 6 gives >= 1 - e^{-3} per run
        g = gen_gnp(10, 0.5, seed=23)
        exact = vc_exact_oracle(g)

        def flaky_extend(x, k, rng):
            if rng.random() < 0.5:
                return None
            return exact.extend(x, k, rng)

        flaky = ExtensionOracle(alpha=1.0, c=2.0, success_prob=0.5, extend=flaky_extend)
        fraction = _success_rate(g, flaky, 150, RunConfig(seed=3000, boost=6.0))
        assert fraction >= 0.85

    def test_deterministic_mode_always_succeeds(self):
        g = gen_gnp(9, 0.4, seed=24)
        fraction = _success_rate(g, vc_exact_oracle(g), 5, RunConfig(deterministic=True))
        assert fraction == 1.0

    def test_matching_oracle_randomized_always_within_twice(self):
        # c = 1 selects t = 0, so the deterministic matching extension makes
        # every randomized run succeed at k = OPT
        from conftest import exhaustive_vc_opt

        for seed in range(10):
            g = gen_gnp(10, 0.45, seed=800 + seed)
            inst = vc_system(g)
            opt = exhaustive_vc_opt(g)
            rep = solve(inst, vc_matching_oracle(g), RunConfig(seed=seed))
            assert rep.size <= 2 * opt

    def test_sampler_uniformity_chi_square(self):
        # the 3-subsets of a 6-universe that solve draws at k = 3,
        # where c = 4.5 picks t = 3 with p = 1/20, so boost 5000 asks for
        # exactly 10^5 of them; reject only below significance 0.001.  No
        # earlier k may hit, or k = 3 could not beat the best and would be
        # skipped: k = 0, 1 pick t = 0 (one sample each) and k = 2 t = 1
        # (p = 1/3, 15 000 samples), all misses
        costs = [select_t(6, k, 1.0, 4.5) for k in range(5)]
        assert [c.t for c in costs] == [0, 0, 1, 3, 4]
        assert (costs[2].p, costs[3].p) == (Fraction(1, 3), Fraction(1, 20))
        draws: list[frozenset] = []

        def recording_extend(x, k, rng):
            # misses up to |X| = 3; k = 4 (t = 4) hits at once, and every
            # later k (t > 4) is skipped
            if len(x) == 3:
                draws.append(x)
            return None if len(x) <= 3 else frozenset()

        recorder = ExtensionOracle(
            alpha=1.0, c=4.5, success_prob=1.0, extend=recording_extend
        )
        inst = MonotoneInstance(n=6, membership=lambda s: len(s) >= 3)
        rep = solve(inst, recorder, RunConfig(seed=12345, boost=5000.0))
        assert (rep.size, rep.k_found) == (4, 4)
        assert rep.total_samples == 1 + 1 + 15_000 + 100_000 + 1
        assert len(draws) == 100_000
        counts: dict[frozenset, int] = {}
        for x in draws:
            counts[x] = counts.get(x, 0) + 1
        cells = math.comb(6, 3)
        assert len(counts) == cells
        expected = len(draws) / cells
        statistic = sum((o - expected) ** 2 / expected for o in counts.values())
        critical = 43.82  # upper 0.001 quantile of chi-square, df = 19: 43.8202
        assert statistic < critical


class TestDeterministicMode:
    def test_path(self):
        rep = solve(vc_system(P3), vc_exact_oracle(P3), RunConfig(deterministic=True))
        assert rep.size == 1

    def test_five_cycle(self):
        rep = solve(vc_system(C5), vc_exact_oracle(C5), RunConfig(deterministic=True))
        assert rep.size == 3

    def test_triangle_matching_within_guarantee(self):
        rep = solve(vc_system(K3), vc_matching_oracle(K3), RunConfig(deterministic=True))
        assert rep.size <= 3

    def test_exact_oracle_finds_optima(self):
        for seed in range(40):
            g = gen_gnp(9, 0.35, seed=500 + seed)
            inst = vc_system(g)
            rep = solve(inst, vc_exact_oracle(g), RunConfig(deterministic=True))
            assert rep.size == exhaustive_vc_opt(g)
            assert inst.membership(frozenset(rep.solution))

    def test_matching_oracle_within_twice_optimum(self):
        for seed in range(40):
            g = gen_gnp(9, 0.35, seed=600 + seed)
            inst = vc_system(g)
            rep = solve(inst, vc_matching_oracle(g), RunConfig(deterministic=True))
            assert rep.size <= 2 * exhaustive_vc_opt(g)

    def test_fractional_ratio_guarantee(self):
        # an exact extension is also a valid 1.5-approximate extension;
        # declaring it as such must keep size <= floor(1.5 * OPT)
        for seed in range(15):
            g = gen_gnp(8, 0.4, seed=900 + seed)
            inst = vc_system(g)
            base = vc_exact_oracle(g)
            relaxed = ExtensionOracle(
                alpha=1.5, c=2.0, success_prob=1.0, extend=base.extend
            )
            rep = solve(inst, relaxed, RunConfig(deterministic=True))
            assert rep.size <= math.floor(1.5 * exhaustive_vc_opt(g))
            assert inst.membership(frozenset(rep.solution))

    def test_hitting_set_optima(self):
        rng = random.Random(8)
        for _ in range(15):
            n = 7
            sets = tuple(
                tuple(sorted(rng.sample(range(n), rng.choice((1, 2, 3)))))
                for _ in range(rng.randrange(3, 9))
            )
            h = Hypergraph3(n, sets)
            inst = hs3_system(h)
            rep = solve(inst, hs3_exact_oracle(h), RunConfig(deterministic=True))
            assert rep.size == exhaustive_hs_opt(h)

    def test_rejects_randomized_oracle(self):
        flaky = ExtensionOracle(
            alpha=1.0, c=2.0, success_prob=0.5, extend=lambda x, k, rng: None
        )
        with pytest.raises(ValueError):
            solve(vc_system(P3), flaky, RunConfig(deterministic=True))

    def test_rejects_large_instances(self):
        g = gen_gnp(15, 0.2, seed=1)
        with pytest.raises(LimitExceededError):
            solve(vc_system(g), vc_exact_oracle(g), RunConfig(deterministic=True))

    def test_limit_fires_before_any_oracle_call(self):
        g = gen_gnp(15, 0.2, seed=1)
        calls = []
        exact = vc_exact_oracle(g)

        def extend(x, k, rng):
            calls.append(k)
            return exact.extend(x, k, rng)

        oracle = ExtensionOracle(alpha=1.0, c=2.0, success_prob=1.0, extend=extend)
        with pytest.raises(LimitExceededError, match="limited to n <= 14, got n=15"):
            solve(vc_system(g), oracle, RunConfig(deterministic=True))
        assert calls == []

    def test_matching_runs_above_the_limit(self):
        # at c = 1 every t is 0, so no k builds a family and n may exceed
        # families.LIMIT; each k extends X = {} once
        g = gen_gnp(200, 0.1, seed=7)
        rep = solve(vc_system(g), vc_matching_oracle(g), RunConfig(deterministic=True))
        matched = set()
        for u, v in g.edges:
            if u not in matched and v not in matched:
                matched.update((u, v))
        assert rep.size == len(matched)
        assert vc_system(g).membership(frozenset(rep.solution))
        assert rep.total_samples == g.n // 2 + 1 == 101
        assert rep.warnings == ()


class TestBruteForce:
    def test_triangle_two_approx(self):
        rep = brute_force_search(vc_system(K3), 2)
        assert rep.size == 2
        assert vc_system(K3).membership(frozenset(rep.solution))

    def test_empty_graph(self):
        rep = brute_force_search(vc_system(EMPTY), 1.5)
        assert rep.solution == ()
        assert rep.k_found == 0

    def test_path_exact(self):
        rep = brute_force_search(vc_system(P3), 1)
        assert rep.solution == (1,)

    @pytest.mark.parametrize("alpha", [1, 1.5, 2])
    def test_guarantee_on_random_graphs(self, alpha):
        for seed in range(25):
            g = gen_gnp(8, 0.35, seed=700 + seed)
            inst = vc_system(g)
            rep = brute_force_search(inst, alpha)
            opt = exhaustive_vc_opt(g)
            assert rep.size <= math.floor(alpha * opt)
            assert inst.membership(frozenset(rep.solution))
            # covering members that are no cover are plain misses
            assert rep.warnings == ()

    @pytest.mark.parametrize("alpha", [1, 1.01, 1.1, 4 / 3, 1.5, 2, 3])
    def test_plan_rows_have_r_equal_k(self, alpha):
        # floor(alpha*k)/alpha lies in (k - 1, k], so the weak
        # (n, k, floor(alpha*k), k) family the run builds is the covering
        for n in range(41):
            rows = list(engine._plan(n, alpha, "brute", None, 1))
            assert rows and all(row.r == row.k for row in rows), n

    def test_limit(self):
        g = gen_gnp(16, 0.2, seed=2)
        with pytest.raises(LimitExceededError):
            brute_force_search(vc_system(g), 2)
        # at alpha > n only k = 0 runs, on X = {} itself, and needs no covering
        rep = brute_force_search(vc_system(g), 17)
        assert (rep.size, rep.k_found, rep.total_samples) == (16, -1, 1)


class TestBudgetSanity:
    @pytest.mark.parametrize("alpha,c", [(1.0, 2.0), (1.5, 2.0), (2.0, 1.0)])
    def test_oracle_never_sees_negative_budget(self, alpha, c):
        g = gen_gnp(10, 0.4, seed=31)
        inst = vc_system(g)
        base = vc_exact_oracle(g)
        budgets = []

        def recording_extend(x, k, rng):
            budgets.append(k)
            return base.extend(x, k, rng)

        oracle = ExtensionOracle(
            alpha=alpha, c=c, success_prob=1.0, extend=recording_extend
        )
        solve(inst, oracle, RunConfig(seed=1, boost=1.0))
        assert budgets and min(budgets) >= 0


class TestReproducibility:
    def test_identical_seeds_identical_json(self):
        g = gen_gnp(11, 0.4, seed=41)
        inst = vc_system(g)
        cfg = RunConfig(seed=99)
        r1 = solve(inst, vc_exact_oracle(g), cfg)
        r2 = solve(inst, vc_exact_oracle(g), cfg)
        assert r1.to_json() == r2.to_json()

    def test_deterministic_mode_reproducible(self):
        g = gen_gnp(9, 0.4, seed=43)
        inst = vc_system(g)
        r1 = solve(inst, vc_exact_oracle(g), RunConfig(deterministic=True))
        r2 = solve(inst, vc_exact_oracle(g), RunConfig(deterministic=True))
        assert r1.to_json() == r2.to_json()

    def test_samples_draw_as_random_sample(self):
        # sample's pool method while n <= 21 + (4**ceil(log4(3t)) if t > 5),
        # its set method above, as for t <= 5 over n >= 22 and for n = 1000
        for n in [*range(61), 100, 200, 1000]:
            for t in range(min(n, 40) + 1):
                for seed in range(3):
                    ours = random.Random(f"{seed}:{n}:{t}")
                    ref = random.Random(f"{seed}:{n}:{t}")
                    for x in engine._samples(ours, n, t, 3):
                        assert x == frozenset(ref.sample(range(n), t))
                        assert ours.getstate() == ref.getstate()


class TestReports:
    def test_json_schema(self):
        rep = solve(vc_system(P3), vc_exact_oracle(P3), RunConfig(seed=7))
        payload = json.loads(rep.to_json())
        assert set(payload) == {
            "instance", "n", "alpha", "c", "mode", "size", "solution",
            "k_found", "total_samples", "seed", "warnings",
        }
        assert payload["solution"] == sorted(payload["solution"])
        assert payload["mode"] == "randomized"
        assert payload["n"] == 3
        assert payload["seed"] == 7

    def test_brute_serializes_null_c(self):
        rep = brute_force_search(vc_system(P3), 1)
        assert json.loads(rep.to_json())["c"] is None

    def test_solve_dispatch(self):
        det = solve(vc_system(P3), vc_exact_oracle(P3), RunConfig(deterministic=True))
        rnd = solve(vc_system(P3), vc_exact_oracle(P3), RunConfig(seed=1))
        assert det.mode == "deterministic"
        assert rnd.mode == "randomized"


CONTRACT = re.compile(r"k=(\d+): oracle broke its contract on (\d+) of (\d+) samples")


def _contract_lines(report):
    """(k, broken, samples) of each contract warning, in report order."""
    found = [CONTRACT.fullmatch(w) for w in report.warnings]
    return [tuple(int(v) for v in m.groups()) for m in found if m]


def _oversized_liar(n):
    # answers every call with the whole universe: too large while n > alpha * k
    return ExtensionOracle(
        alpha=1.0, c=2.0, success_prob=1.0, extend=lambda x, k, rng: frozenset(range(n))
    )


def _empty_liar(graph, non_covers):
    # answers every call with Y = {}: X u Y is no member unless X covers
    def extend(x, k, rng):
        if not is_cover(graph.edges, x):
            non_covers.append(x)
        return frozenset()

    return ExtensionOracle(alpha=1.0, c=2.0, success_prob=1.0, extend=extend)


class TestContractViolations:
    def test_randomized_counts_oversized_answers(self):
        rep = solve(vc_system(C5), _oversized_liar(5), RunConfig(seed=4))
        lines = _contract_lines(rep)
        assert [k for k, _, _ in lines] == [0, 1, 2, 3, 4]
        assert all(broken == samples > 0 for _, broken, samples in lines)
        assert len(rep.warnings) == len(lines)
        assert rep.size == 5 and rep.k_found == -1

    def test_randomized_counts_non_member_answers(self):
        non_covers = []
        g = gen_gnp(10, 0.4, seed=8)
        rep = solve(vc_system(g), _empty_liar(g, non_covers), RunConfig(seed=2))
        lines = _contract_lines(rep)
        assert lines and all(0 < broken <= samples for _, broken, samples in lines)
        assert sum(broken for _, broken, _ in lines) == len(non_covers)
        assert vc_system(g).membership(frozenset(rep.solution))

    def test_deterministic_counts_oversized_answers(self):
        rep = solve(vc_system(C5), _oversized_liar(5), RunConfig(deterministic=True))
        lines = _contract_lines(rep)
        assert [k for k, _, _ in lines] == [0, 1, 2, 3, 4]
        assert all(broken == samples > 0 for _, broken, samples in lines)
        assert sum(samples for _, _, samples in lines) < rep.total_samples

    def test_deterministic_counts_non_member_answers(self):
        non_covers = []
        g = gen_gnp(10, 0.4, seed=9)
        rep = solve(vc_system(g), _empty_liar(g, non_covers), RunConfig(deterministic=True))
        lines = _contract_lines(rep)
        assert lines and all(0 < broken <= samples for _, broken, samples in lines)
        assert sum(broken for _, broken, _ in lines) == len(non_covers)
        assert vc_system(g).membership(frozenset(rep.solution))

    def test_shipped_oracles_keep_the_contract(self):
        for seed in range(4):
            g = gen_gnp(12, 0.3, seed=seed)
            rng = random.Random(seed)
            h = Hypergraph3(
                11, tuple(tuple(rng.sample(range(11), 3)) for _ in range(20))
            )
            runs = [
                (vc_system(g), vc_exact_oracle(g)),
                (vc_system(g), vc_matching_oracle(g)),
                (hs3_system(h), hs3_exact_oracle(h)),
            ]
            for inst, oracle in runs:
                for deterministic in (False, True):
                    cfg = RunConfig(seed=seed, deterministic=deterministic)
                    assert solve(inst, oracle, cfg).warnings == ()


class TestFailedSamples:
    # an oracle that always fails: every randomized sample stands for the
    # universe, which is a hit only at the last k, where floor(alpha*k) >= n
    NEVER = ExtensionOracle(1.0, 2.0, 1.0, lambda x, k, rng: None)

    def test_universe_hit_draws_one_sample_at_the_last_k(self):
        # 41 and 12, not 51 and 17: a k with t = 0 draws one sample, as the
        # oracle is sure
        inst = vc_system(gen_gnp(8, 0.5, seed=3))
        rep = solve(inst, self.NEVER, RunConfig(seed=1))
        assert rep.total_samples == 41
        assert rep.size == 8 and rep.k_found == -1 and rep.warnings == ()
        cfg = RunConfig(seed=1, stop_at_first=True, max_repetitions=2)
        assert solve(inst, self.NEVER, cfg).total_samples == 12

    def test_t0_sample_with_a_sure_oracle_runs_once(self):
        # c = 1 selects t = 0 at every k, so X is always {}: a sure oracle is
        # asked once per k, an unsure one ceil(boost) = 3 times (9 k's, the
        # last a universe hit)
        inst = vc_system(gen_gnp(8, 0.5, seed=3))
        for success_prob, samples in ((1.0, 9), (0.5, 8 * 3 + 1)):
            oracle = ExtensionOracle(1.0, 1.0, success_prob, lambda x, k, rng: None)
            assert solve(inst, oracle, RunConfig(seed=1)).total_samples == samples

    def test_deterministic_visits_every_member(self):
        inst = vc_system(gen_gnp(8, 0.5, seed=3))
        rep = solve(inst, self.NEVER, RunConfig(deterministic=True))
        assert rep.total_samples == 20
        assert rep.size == 8 and rep.k_found == -1 and rep.warnings == ()


class TestSkippedK:
    # every Z contains its X, so a k whose X all have more elements than the
    # best member cannot change the report and runs no X.  The instance
    # below tracks the best size as the engine sees it: membership is asked
    # only of a Z small enough for its k, so each true answer is a hit.
    G = gen_gnp(12, 0.3, seed=5)

    def _tracked(self):
        inst = vc_system(self.G)
        best = [inst.n]

        def membership(s):
            member = inst.membership(s)
            if member:
                best[0] = min(best[0], len(s))
            return member

        return replace(inst, membership=membership), best

    @pytest.mark.parametrize("alpha, ks", [(1.0, 8), (1.5, 6)])
    def test_brute_builds_no_covering_past_its_first_hit(self, alpha, ks, monkeypatch):
        built = []

        def build(n, p, q, r, strong=False):
            built.append(p)  # brute's (n, t, k)-covering is the weak (n, k, t, k) family
            return families.build_intersection_family(n, p, q, r, strong)

        # the families layer binds with setdefault, so the wrapper stays
        monkeypatch.setattr(engine, "build_intersection_family", build)
        rep = brute_force_search(vc_system(self.G), alpha)
        # k = 0 takes X = {} itself: an (n, 0, 0)-covering's one member
        assert built == list(range(1, rep.k_found + 1)) == list(range(1, ks))
        assert rep.k_found < math.floor(12 / alpha)

    @pytest.mark.parametrize("alpha, sizes", [(1.0, [2, 4, 6]), (1.5, [6, 9, 9])])
    def test_deterministic_builds_no_family_larger_than_the_best(
        self, alpha, sizes, monkeypatch
    ):
        inst, best = self._tracked()
        built = []

        def build(n, p, q, r, strong=False):
            assert q <= best[0]
            built.append(q)
            return families.build_intersection_family(n, p, q, r, strong)

        monkeypatch.setattr(engine, "build_intersection_family", build)
        oracle = replace(vc_exact_oracle(self.G), alpha=alpha)
        rep = solve(inst, oracle, RunConfig(deterministic=True))
        # alpha 1 skips k = 10..12 (t = 8, 10, 12 > 7) and alpha 1.5 k = 8
        # (t = 12 > 9)
        assert built == sizes
        assert rep.size == best[0] and inst.membership(frozenset(rep.solution))

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_randomized_extends_no_x_larger_than_the_best(self, alpha):
        inst, best = self._tracked()
        oracle = replace(vc_exact_oracle(self.G), alpha=alpha)
        seen = set()

        def extend(x, k, rng):
            assert len(x) <= best[0]
            seen.add(len(x))
            return oracle.extend(x, k, rng)

        rep = solve(inst, replace(oracle, extend=extend), RunConfig(seed=1))
        ts = {select_t(12, k, alpha, 2.0).t for k in range(math.floor(12 / alpha) + 1)}
        assert max(ts) > rep.size == best[0]  # some k was skipped
        assert seen == {t for t in ts if t <= rep.size}


class TestExhaustiveMinimum:
    """The suite's enumerated optimum, on instances whose optimum is known."""

    def test_known_instances(self):
        assert exhaustive_vc_opt(P3) == 1
        assert exhaustive_vc_opt(K3) == 2
        assert exhaustive_vc_opt(C5) == 3
        assert exhaustive_vc_opt(EMPTY) == 0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(boost=0.5),
            dict(max_repetitions=0),
            dict(boost=math.nan),
            # each passed construction and failed mid-run or ran oddly
            dict(boost=math.inf),
            dict(max_repetitions=2.5),
            dict(max_repetitions=True),
            dict(max_repetitions="2"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)
        # _replace builds through the validating constructor too
        with pytest.raises(ValueError):
            RunConfig()._replace(**kwargs)

    def test_has_no_limit_field(self):
        # the universe-size limit is families.LIMIT, not a setting
        assert list(RunConfig._fields) == [
            "seed", "boost", "max_repetitions", "deterministic", "stop_at_first"
        ]
        with pytest.raises(TypeError):
            RunConfig(family_limit=14)

    def test_oracle_validation(self):
        with pytest.raises(ValueError):
            ExtensionOracle(alpha=0.5, c=2, success_prob=1, extend=lambda x, k, r: None)
        with pytest.raises(ValueError):
            ExtensionOracle(alpha=1, c=0.5, success_prob=1, extend=lambda x, k, r: None)
        with pytest.raises(ValueError):
            ExtensionOracle(alpha=1, c=2, success_prob=0, extend=lambda x, k, r: None)
        for alpha, c in ((math.inf, 2), (1, math.inf), (math.nan, 2), (1, math.nan)):
            with pytest.raises(ValueError):
                ExtensionOracle(alpha=alpha, c=c, success_prob=1, extend=lambda x, k, r: None)

    def test_valid_edges(self):
        assert RunConfig(boost=1, max_repetitions=1).max_repetitions == 1
        assert ExtensionOracle(1, 1, 1, lambda x, k, r: None).c == 1
