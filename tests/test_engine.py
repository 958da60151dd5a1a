"""Engine behavior: guarantees, statistics, reproducibility, concurrency."""

import json
import math
import random
import re
from dataclasses import fields
from fractions import Fraction

import pytest

from amls.combinatorics import select_t
from amls.engine import (
    ExtensionOracle,
    MonotoneInstance,
    RunConfig,
    brute_force_search,
    exhaustive_minimum,
    run_deterministic,
    run_randomized,
    solve,
    success_rate,
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
        rep = run_randomized(vc_system(EMPTY), vc_exact_oracle(EMPTY), RunConfig(seed=1))
        assert rep.solution == ()
        assert rep.size == 0
        assert rep.k_found == 0

    def test_path_finds_the_center(self):
        rep = run_randomized(vc_system(P3), vc_exact_oracle(P3), RunConfig(seed=7))
        assert rep.size == 1
        assert rep.solution == (1,)

    def test_triangle_with_matching_oracle(self):
        rep = run_randomized(vc_system(K3), vc_matching_oracle(K3), RunConfig(seed=3))
        assert rep.size == 2

    def test_output_is_always_a_member(self):
        for seed in range(15):
            g = gen_gnp(9, 0.35, seed=100 + seed)
            inst = vc_system(g)
            rep = run_randomized(inst, vc_exact_oracle(g), RunConfig(seed=seed))
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
            rep = run_randomized(inst, hs3_exact_oracle(h), RunConfig(seed=rng.randrange(10**6)))
            assert inst.membership(frozenset(rep.solution))
            assert rep.size >= exhaustive_hs_opt(h)

    def test_rejects_deterministic_config(self):
        with pytest.raises(ValueError):
            run_randomized(vc_system(P3), vc_exact_oracle(P3), RunConfig(deterministic=True))

    def test_repetition_cap_records_warning(self):
        g = gen_gnp(12, 0.7, seed=5)
        inst = vc_system(g)
        rep = run_randomized(
            inst, vc_exact_oracle(g), RunConfig(seed=2, max_repetitions=1)
        )
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


class TestStatistics:
    def test_boost_three_success_rate(self):
        # dense graph so the optimum sits above n*delta* and sampling is real
        g = gen_gnp(12, 0.55, seed=21)
        inst = vc_system(g)
        fraction = success_rate(
            inst, vc_exact_oracle(g), trials=150, cfg=RunConfig(seed=1000, boost=3.0)
        )
        assert fraction >= 0.9

    def test_boost_one_success_rate(self):
        g = gen_gnp(10, 0.5, seed=22)
        inst = vc_system(g)
        fraction = success_rate(
            inst, vc_exact_oracle(g), trials=300, cfg=RunConfig(seed=2000, boost=1.0)
        )
        assert fraction >= 0.5  # theory: >= 1 - 1/e ~ 0.632

    def test_flaky_oracle_with_amplification(self):
        # oracle fails half the time; boost 6 gives >= 1 - e^{-3} per run
        g = gen_gnp(10, 0.5, seed=23)
        inst = vc_system(g)
        exact = vc_exact_oracle(g)

        def flaky_extend(x, k, rng):
            if rng.random() < 0.5:
                return None
            return exact.extend(x, k, rng)

        flaky = ExtensionOracle(
            alpha=1.0, c=2.0, success_prob=0.5, extend=flaky_extend, name="flaky"
        )
        fraction = success_rate(
            inst, flaky, trials=150, cfg=RunConfig(seed=3000, boost=6.0)
        )
        assert fraction >= 0.85

    def test_deterministic_mode_always_succeeds(self):
        g = gen_gnp(9, 0.4, seed=24)
        inst = vc_system(g)
        fraction = success_rate(
            inst,
            vc_exact_oracle(g),
            trials=5,
            cfg=RunConfig(deterministic=True),
        )
        assert fraction == 1.0

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_non_positive_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            success_rate(vc_system(P3), vc_exact_oracle(P3), trials=trials)

    def test_matching_oracle_randomized_always_within_twice(self):
        # c = 1 selects t = 0, so the deterministic matching extension makes
        # every randomized run succeed at k = OPT
        from conftest import exhaustive_vc_opt

        for seed in range(10):
            g = gen_gnp(10, 0.45, seed=800 + seed)
            inst = vc_system(g)
            opt = exhaustive_vc_opt(g)
            rep = run_randomized(inst, vc_matching_oracle(g), RunConfig(seed=seed))
            assert rep.size <= 2 * opt

    def test_sampler_uniformity_chi_square(self):
        # the 3-subsets of a 6-universe that run_randomized draws at k = 3,
        # where c = 1024 picks t = 3 with p = 1/20, so boost 5000 asks for
        # exactly 10^5 of them; reject only below significance 0.001
        cost = select_t(6, 3, 1.0, 1024.0)
        assert (cost.t, cost.p) == (3, Fraction(1, 20))
        draws: list[frozenset] = []

        def recording_extend(x, k, rng):
            # every other k picks t = k and stops at its first sample
            if len(x) != 3:
                return frozenset()
            draws.append(x)
            return None

        recorder = ExtensionOracle(
            alpha=1.0, c=1024.0, success_prob=1.0, extend=recording_extend
        )
        inst = MonotoneInstance(n=6, membership=lambda s: True)
        rep = run_randomized(inst, recorder, RunConfig(seed=12345, boost=5000.0))
        assert rep.total_samples == 100_006
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
        rep = run_deterministic(vc_system(P3), vc_exact_oracle(P3))
        assert rep.size == 1

    def test_five_cycle(self):
        rep = run_deterministic(vc_system(C5), vc_exact_oracle(C5))
        assert rep.size == 3

    def test_triangle_matching_within_guarantee(self):
        rep = run_deterministic(vc_system(K3), vc_matching_oracle(K3))
        assert rep.size <= 3

    def test_exact_oracle_finds_optima(self):
        for seed in range(40):
            g = gen_gnp(9, 0.35, seed=500 + seed)
            inst = vc_system(g)
            rep = run_deterministic(inst, vc_exact_oracle(g))
            assert rep.size == exhaustive_vc_opt(g)
            assert inst.membership(frozenset(rep.solution))

    def test_matching_oracle_within_twice_optimum(self):
        for seed in range(40):
            g = gen_gnp(9, 0.35, seed=600 + seed)
            inst = vc_system(g)
            rep = run_deterministic(inst, vc_matching_oracle(g))
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
            rep = run_deterministic(inst, relaxed)
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
            rep = run_deterministic(inst, hs3_exact_oracle(h))
            assert rep.size == exhaustive_hs_opt(h)

    def test_rejects_randomized_oracle(self):
        flaky = ExtensionOracle(
            alpha=1.0, c=2.0, success_prob=0.5, extend=lambda x, k, rng: None
        )
        with pytest.raises(ValueError):
            run_deterministic(vc_system(P3), flaky)

    def test_rejects_large_instances(self):
        g = gen_gnp(15, 0.2, seed=1)
        with pytest.raises(LimitExceededError):
            run_deterministic(vc_system(g), vc_exact_oracle(g))

    def test_limit_fires_before_any_oracle_call(self):
        g = gen_gnp(15, 0.2, seed=1)
        calls = []
        exact = vc_exact_oracle(g)

        def extend(x, k, rng):
            calls.append(k)
            return exact.extend(x, k, rng)

        oracle = ExtensionOracle(alpha=1.0, c=2.0, success_prob=1.0, extend=extend)
        with pytest.raises(LimitExceededError, match="limited to n <= 14, got n=15"):
            run_deterministic(vc_system(g), oracle)
        assert calls == []

    def test_matching_runs_above_the_limit(self):
        # at c = 1 every t is 0, so no k builds a family and n may exceed
        # families.LIMIT; each k extends X = {} once
        g = gen_gnp(200, 0.1, seed=7)
        rep = run_deterministic(vc_system(g), vc_matching_oracle(g), RunConfig())
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

    def test_limit(self):
        g = gen_gnp(16, 0.2, seed=2)
        with pytest.raises(LimitExceededError):
            brute_force_search(vc_system(g), 2)


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
        run_randomized(inst, oracle, RunConfig(seed=1, boost=1.0))
        assert budgets and min(budgets) >= 0


class TestReproducibility:
    def test_identical_seeds_identical_json(self):
        g = gen_gnp(11, 0.4, seed=41)
        inst = vc_system(g)
        cfg = RunConfig(seed=99)
        r1 = run_randomized(inst, vc_exact_oracle(g), cfg)
        r2 = run_randomized(inst, vc_exact_oracle(g), cfg)
        assert r1.to_json() == r2.to_json()

    def test_deterministic_mode_reproducible(self):
        g = gen_gnp(9, 0.4, seed=43)
        inst = vc_system(g)
        r1 = run_deterministic(inst, vc_exact_oracle(g))
        r2 = run_deterministic(inst, vc_exact_oracle(g))
        assert r1.to_json() == r2.to_json()


class TestReports:
    def test_json_schema(self):
        rep = run_randomized(vc_system(P3), vc_exact_oracle(P3), RunConfig(seed=7))
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
        rep = run_randomized(vc_system(C5), _oversized_liar(5), RunConfig(seed=4))
        lines = _contract_lines(rep)
        assert [k for k, _, _ in lines] == [0, 1, 2, 3, 4]
        assert all(broken == samples > 0 for _, broken, samples in lines)
        assert len(rep.warnings) == len(lines)
        assert rep.size == 5 and rep.k_found == -1

    def test_randomized_counts_non_member_answers(self):
        non_covers = []
        g = gen_gnp(10, 0.4, seed=8)
        rep = run_randomized(vc_system(g), _empty_liar(g, non_covers), RunConfig(seed=2))
        lines = _contract_lines(rep)
        assert lines and all(0 < broken <= samples for _, broken, samples in lines)
        assert sum(broken for _, broken, _ in lines) == len(non_covers)
        assert vc_system(g).membership(frozenset(rep.solution))

    def test_deterministic_counts_oversized_answers(self):
        rep = run_deterministic(vc_system(C5), _oversized_liar(5))
        lines = _contract_lines(rep)
        assert [k for k, _, _ in lines] == [0, 1, 2, 3, 4]
        assert all(broken == samples > 0 for _, broken, samples in lines)
        assert sum(samples for _, _, samples in lines) < rep.total_samples

    def test_deterministic_counts_non_member_answers(self):
        non_covers = []
        g = gen_gnp(10, 0.4, seed=9)
        rep = run_deterministic(vc_system(g), _empty_liar(g, non_covers))
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
        rep = run_randomized(inst, self.NEVER, RunConfig(seed=1))
        assert rep.total_samples == 41
        assert rep.size == 8 and rep.k_found == -1 and rep.warnings == ()
        cfg = RunConfig(seed=1, stop_at_first=True, max_repetitions=2)
        assert run_randomized(inst, self.NEVER, cfg).total_samples == 12

    def test_t0_sample_with_a_sure_oracle_runs_once(self):
        # c = 1 selects t = 0 at every k, so X is always {}: a sure oracle is
        # asked once per k, an unsure one ceil(boost) = 3 times (9 k's, the
        # last a universe hit)
        inst = vc_system(gen_gnp(8, 0.5, seed=3))
        for success_prob, samples in ((1.0, 9), (0.5, 8 * 3 + 1)):
            oracle = ExtensionOracle(1.0, 1.0, success_prob, lambda x, k, rng: None)
            assert run_randomized(inst, oracle, RunConfig(seed=1)).total_samples == samples

    def test_deterministic_visits_every_member(self):
        inst = vc_system(gen_gnp(8, 0.5, seed=3))
        rep = run_deterministic(inst, self.NEVER)
        assert rep.total_samples == 20
        assert rep.size == 8 and rep.k_found == -1 and rep.warnings == ()


class TestExhaustiveMinimum:
    def test_known_instances(self):
        assert exhaustive_minimum(vc_system(P3)) == 1
        assert exhaustive_minimum(vc_system(K3)) == 2
        assert exhaustive_minimum(vc_system(C5)) == 3
        assert exhaustive_minimum(vc_system(EMPTY)) == 0

    def test_rejects_non_monotone_top(self):
        broken = MonotoneInstance(n=2, membership=lambda s: False)
        with pytest.raises(ValueError):
            exhaustive_minimum(broken)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(boost=0.5), dict(max_repetitions=0), dict(boost=math.nan)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_has_no_limit_field(self):
        # the universe-size limit is families.LIMIT, not a setting
        assert [f.name for f in fields(RunConfig)] == [
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
