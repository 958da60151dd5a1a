"""CLI behavior: exit codes, output stability, file handling."""

import ast
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

import amls
from amls.cli import main
from amls.engine import RunConfig, brute_force_search, solve
from amls.problems import (
    Hypergraph3,
    gen_gnp,
    hs3_exact_oracle,
    hs3_system,
    vc_exact_oracle,
    vc_matching_oracle,
    vc_system,
)

P3_TEXT = "p edge 3 2\ne 1 2\ne 2 3\n"
K3_TEXT = "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"
EMPTY_TEXT = "p edge 4 0\n"


def _child_env() -> dict:
    """This environment, with the amls this process imported first on PYTHONPATH."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(amls.__file__)))
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )
    return dict(os.environ, PYTHONPATH=pythonpath)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.col"
    path.write_text(P3_TEXT)
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.col"
    path.write_text(K3_TEXT)
    return str(path)


class TestBounds:
    def test_dfvs_style_pair(self, capsys):
        assert main(["bounds", "--alpha", "2", "--c", "1024"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "alpha,c,amls,brute,naive,emls,dominant"
        fields = out[1].split(",")
        assert abs(float(fields[2]) - 1.2499) < 1e-3
        assert fields[6] == "brute"

    def test_trivial_pair(self, capsys):
        assert main(["bounds", "--alpha", "1", "--c", "2"]) == 0
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(fields[2]) == 1.5

    def test_vc_style_pair(self, capsys):
        assert main(["bounds", "--alpha", "1.1", "--c", "1.1652"]) == 0
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        assert abs(float(fields[2]) - 1.114) < 1e-3

    def test_presets(self, capsys):
        assert main(["bounds", "--preset", "vc-1.1"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith("1.1,1.1652,")
        assert main(["bounds", "--preset", "dfvs-2"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith("2,1024,")

    def test_output_is_stable(self, capsys):
        args = ["bounds", "--alpha", "1.2,1.7", "--c", "1.5,3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_csv_file(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        assert main(["bounds", "--alpha", "2", "--c", "4", "--csv", str(path)]) == 0
        assert capsys.readouterr().out == ""
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,c,amls,brute,naive,emls,dominant"
        assert len(lines) == 2

    def test_csv_dash_is_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["bounds", "--alpha", "2", "--c", "4"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--csv", "-"]) == 0
        assert capsys.readouterr().out == plain
        assert not (tmp_path / "-").exists()

    def test_usage_errors(self, capsys):
        assert main(["bounds"]) == 1
        assert main(["bounds", "--alpha", "nope", "--c", "2"]) == 1
        assert main(["bounds", "--alpha", "2", "--c", "2", "--preset", "vc-1.1"]) == 1

    @pytest.mark.parametrize("alpha,c", [("", "2"), ("2", ","), (",,", "")])
    def test_empty_list_is_usage_error(self, alpha, c, capsys):
        assert main(["bounds", "--alpha", alpha, "--c", c]) == 1
        assert capsys.readouterr().out == ""

    def test_runtime_error_on_bad_domain(self, capsys):
        assert main(["bounds", "--alpha", "0.5", "--c", "2"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["--alpha", "1e16", "--c", "1.7e308", "--tol", "1e-300"],  # b underflows to 0
         ["--alpha", "144", "--c", "2"]],  # alpha**alpha overflows
    )
    def test_float_range_edges_run(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "amls.cli", "bounds", *argv],
            capture_output=True, text=True, timeout=60, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stdout.splitlines()) == 2  # the header and one row


class TestSolve:
    def test_path(self, p3_file, capsys):
        assert main(["solve", "--problem", "vc", "--input", p3_file, "--seed", "7"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "size 1"
        assert out[1] == "solution 2"  # vertex ids are 1-based outside

    def test_triangle_matching(self, k3_file, capsys):
        rc = main(
            ["solve", "--problem", "vc", "--input", k3_file,
             "--oracle", "matching", "--alpha", "2", "--seed", "1"]
        )
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "size 2"

    def test_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "empty.col"
        path.write_text(EMPTY_TEXT)
        assert main(["solve", "--problem", "vc", "--input", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "size 0"
        assert out[1] == "solution"

    def test_deterministic_json_is_reproducible(self, p3_file, tmp_path, capsys):
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        base = ["solve", "--problem", "vc", "--input", p3_file, "--deterministic"]
        assert main(base + ["--json", str(j1)]) == 0
        assert main(base + ["--json", str(j2)]) == 0
        assert j1.read_bytes() == j2.read_bytes()
        payload = json.loads(j1.read_text())
        assert payload["mode"] == "deterministic"
        assert payload["size"] == 1

    def test_json_to_stdout(self, p3_file, capsys):
        assert main(
            ["solve", "--problem", "vc", "--input", p3_file, "--json", "-", "--seed", "3"]
        ) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert json.loads(last)["solution"] == [1]  # JSON keeps 0-based ids

    def test_hs3(self, tmp_path, capsys):
        path = tmp_path / "sets.hs3"
        path.write_text("p hs3 3 1\ns 1 2 3\n")
        assert main(["solve", "--problem", "hs3", "--input", str(path), "--seed", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "size 1"

    def test_alpha_below_oracle_is_usage_error(self, k3_file):
        rc = main(
            ["solve", "--problem", "vc", "--input", k3_file,
             "--oracle", "matching", "--alpha", "1.5"]
        )
        assert rc == 1

    def test_matching_oracle_rejected_for_hs3(self, tmp_path, capsys):
        path = tmp_path / "sets.hs3"
        path.write_text("p hs3 3 1\ns 1 2 3\n")
        rc = main(
            ["solve", "--problem", "hs3", "--input", str(path), "--oracle", "matching"]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: the matching oracle applies to vc only\n"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.col"
        path.write_text("p edge 2 1\ne 1 5\n")
        assert main(["solve", "--problem", "vc", "--input", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert main(["solve", "--problem", "vc", "--input", "/no/such/file"]) == 2

    def test_unknown_flag_is_usage_error(self, p3_file):
        assert main(["solve", "--problem", "vc", "--input", p3_file, "--wat"]) == 1

    def test_flags_pass_through(self, k3_file, capsys):
        rc = main(
            ["solve", "--problem", "vc", "--input", k3_file, "--seed", "2",
             "--boost", "1", "--stop-at-first",
             "--max-repetitions", "50"]
        )
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "size 2"

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(P3_TEXT))
        assert main(["solve", "--problem", "vc", "--input", "-", "--seed", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "size 1"

    def test_cross_process_determinism(self, p3_file):
        # hash randomization must not leak into reports
        # the child must import the same amls as this process, installed or from src/
        outputs = set()
        for hashseed in ("0", "random"):
            proc = subprocess.run(
                [sys.executable, "-m", "amls.cli", "solve", "--problem", "vc",
                 "--input", p3_file, "--seed", "5", "--json", "-"],
                capture_output=True, text=True,
                env=dict(_child_env(), PYTHONHASHSEED=hashseed),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout.splitlines()[-1])
        assert len(outputs) == 1


def _graph_text(graph):
    lines = [f"p edge {graph.n} {len(graph.edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in graph.edges]
    return "\n".join(lines) + "\n"


def _hs3_text(n, m, seed):
    # sets in the order drawn, not sorted: the oracle must keep input order
    triples = random.Random(seed).sample(list(combinations(range(n), 3)), m)
    lines = [f"p hs3 {n} {m}"] + ["s " + " ".join(str(v + 1) for v in t) for t in triples]
    return "\n".join(lines) + "\n"


def _golden_instances(tmp_path):
    vc16, vc14, hs14 = (tmp_path / name for name in ("vc16.col", "vc14.col", "hs14.hs3"))
    vc16.write_text(_graph_text(gen_gnp(16, 0.3, seed=16)))
    vc14.write_text(_graph_text(gen_gnp(14, 0.3, seed=14)))
    hs14.write_text(_hs3_text(14, 30, seed=14))
    return str(vc16), str(vc14), str(hs14)


def _seeded_runs(tmp_path):
    vc16, vc14, hs14 = _golden_instances(tmp_path)
    runs = []
    for seed in ("1", "2"):
        runs.append(["solve", "--problem", "vc", "--input", vc16, "--seed", seed])
        runs.append(["solve", "--problem", "hs3", "--input", hs14, "--seed", seed])
    runs.append(["solve", "--problem", "vc", "--input", vc14, "--deterministic"])
    runs.append(["solve", "--problem", "hs3", "--input", hs14, "--deterministic"])
    return runs


def _matching_runs(tmp_path):
    g60, g200, g14 = (tmp_path / f"g{n}.col" for n in (60, 200, 14))
    g60.write_text(_graph_text(gen_gnp(60, 0.1, seed=60)))
    g200.write_text(_graph_text(gen_gnp(200, 0.1, seed=200)))
    g14.write_text(_graph_text(gen_gnp(14, 0.3, seed=14)))
    runs = []
    for seed in ("1", "2"):
        runs.append(["--input", str(g60), "--seed", seed])
        runs.append(["--input", str(g200), "--seed", seed])
    runs.append(["--input", str(g14), "--deterministic"])
    return [["solve", "--problem", "vc", "--oracle", "matching", *argv] for argv in runs]


def _loops_runs(tmp_path):
    vc16, vc14, hs14 = _golden_instances(tmp_path)
    runs = []
    for alpha in ("1.5", "1"):
        runs.append(["brute", "--problem", "vc", "--input", vc14, "--alpha", alpha])
        runs.append(["brute", "--problem", "hs3", "--input", hs14, "--alpha", alpha])
    runs.append(["solve", "--problem", "vc", "--input", vc16, "--stop-at-first", "--seed", "1"])
    runs.append(["solve", "--problem", "hs3", "--input", hs14, "--max-repetitions", "2",
                 "--seed", "1"])
    runs.append(["solve", "--problem", "vc", "--input", vc14, "--deterministic",
                 "--stop-at-first"])
    return runs


def _corpus_reports():
    """A seeded corpus of 200 small runs: VC and 3-HS, n <= 14, all three
    modes, alpha in {1, 4/3, 1.5, 2}, some capped or stopping at the first hit."""
    rng = random.Random(17)
    for i in range(200):
        n = rng.randint(3, 14)
        alpha = rng.choice((1.0, 4 / 3, 1.5, 2.0))
        mode = rng.choice(("randomized", "deterministic", "brute"))
        if rng.random() < 0.5:
            g = gen_gnp(n, rng.choice((0.2, 0.35, 0.5)), seed=i)
            inst = vc_system(g)
            matching = alpha == 2.0 and rng.random() < 0.5
            oracle = vc_matching_oracle(g) if matching else vc_exact_oracle(g)
        else:
            triples = list(combinations(range(n), 3))
            m = min(len(triples), rng.randint(n, 2 * n))
            h = Hypergraph3(n, tuple(rng.sample(triples, m)))
            inst, oracle = hs3_system(h), hs3_exact_oracle(h)
        cap = rng.choice((None, None, None, 1, 2, 5))
        stop = rng.random() < 0.25
        if mode == "brute":
            yield brute_force_search(inst, alpha)
        else:
            cfg = RunConfig(
                seed=i,
                max_repetitions=cap,
                deterministic=mode == "deterministic",
                stop_at_first=stop,
            )
            yield solve(inst, replace(oracle, alpha=alpha), cfg)


def _json_lines(runs, capsys):
    """The --json - report line of each CLI call."""
    lines = []
    for argv in runs:
        assert main([*argv, "--json", "-"]) == 0
        lines.append(capsys.readouterr().out.splitlines()[-1])
    return lines


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _without(keys, reports):
    """Each JSON report line without the given keys."""
    lines = []
    for report in reports:
        for key in keys:
            del report[key]
        lines.append(json.dumps(report, sort_keys=True))
    return lines


def _lines_without(keys, tmp_path, capsys):
    """The report lines of all three run sets, each without the given keys."""
    lines = []
    for runs in (_seeded_runs, _matching_runs, _loops_runs):
        lines += _without(keys, map(json.loads, _json_lines(runs(tmp_path), capsys)))
    return lines


class TestGoldenReports:
    # sha256 of the seeded --json - lines below as the set-based branching
    # oracles wrote them, with one sample at each k where t = 0 and the
    # oracle is sure and none at a k whose X are all larger than the best
    # (vc16 26 -> 23 and 27 -> 24, hs14 23 -> 17 twice, deterministic vc14
    # 120 -> 94 and hs14 623 -> 187 samples; nothing else moved); the
    # deterministic VC run uses G(14, 0.3) because families.LIMIT is 14
    DIGEST = "e1e66b466925cc70b597fbafa52eea6c1e390525a6a4f86465959fbf131541d3"

    def test_seeded_reports_are_pinned(self, tmp_path, capsys):
        lines = _json_lines(_seeded_runs(tmp_path), capsys)
        assert _sha256(lines) == self.DIGEST, lines

    # sha256 of the seeded --json - lines below as the edge-scanning greedy
    # matching oracle wrote them, with one sample at each k where t = 0
    MATCHING_DIGEST = "86c6cecaa4200dbbb67c97591e38d7fb3c5538787f38134e48f1f45698a57073"

    def test_matching_reports_are_pinned(self, tmp_path, capsys):
        lines = _json_lines(_matching_runs(tmp_path), capsys)
        assert _sha256(lines) == self.MATCHING_DIGEST, lines

    # sha256 of the --json - lines below as the three per-k loops wrote them
    # before they were folded into one executor: brute force, stop-at-first
    # in both modes, and a repetition cap whose warnings land in the JSON;
    # with one sample at each k where t = 0 and the oracle is sure, and no
    # cap warning at a k that one sample decides; brute stops after its
    # first hit (vc14 615 -> 590 and 16384 -> 12911, hs14 615 -> 262 and
    # 16384 -> 6476 samples) and the capped run skips k = 9..13 (16 -> 10
    # samples, 9 -> 4 warnings); nothing else moved
    LOOPS_DIGEST = "0158c5ec94494d3803109903af6ffd689a6e49c52c8447b0f6a17e7d2f458ed8"

    def test_brute_stop_and_cap_reports_are_pinned(self, tmp_path, capsys):
        lines = _json_lines(_loops_runs(tmp_path), capsys)
        assert any(json.loads(line)["warnings"] for line in lines)
        assert _sha256(lines) == self.LOOPS_DIGEST, lines

    # sha256 of the three sets of lines above, each report without its
    # total_samples, as written before a t = 0 sample with a sure oracle
    # ran once (running it once changes the sample counts and nothing else),
    # with no cap warning at a k that one sample decides, and none at the
    # k's 9..13 that the capped run skips
    REPORTS_BUT_SAMPLES_DIGEST = "2bfa3815b45da71cc2f309d79cfea7017111cac2aa6cf3bb2c7c514c73368b3a"

    def test_reports_but_samples_are_pinned(self, tmp_path, capsys):
        lines = _lines_without(("total_samples",), tmp_path, capsys)
        assert _sha256(lines) == self.REPORTS_BUT_SAMPLES_DIGEST, lines

    # sha256 of the three sets of lines above, each report without its
    # warnings, as written while a k that one sample decides still warned
    # of a repetition cap: dropping that warning changes nothing else; with
    # the sample counts of the skipped k's taken out, as in DIGEST and
    # LOOPS_DIGEST
    REPORTS_BUT_WARNINGS_DIGEST = "67da62e6d1b5698fb9462e104a16848e46772b02ab1b1fcad8cd253ebb5cbeed"

    def test_reports_but_warnings_are_pinned(self, tmp_path, capsys):
        lines = _lines_without(("warnings",), tmp_path, capsys)
        assert _sha256(lines) == self.REPORTS_BUT_WARNINGS_DIGEST, lines

    # sha256 of the three sets of lines above and of the seeded corpus, each
    # report without both total_samples and warnings, recorded before a k
    # whose every X is larger than the best member was skipped: skipping it
    # changes those two fields and nothing else
    REPORTS_BUT_BOTH_DIGEST = "14f34a471974401659370eafa5b40140603dd94f309a4e765f46c33c895f19a1"

    def test_reports_but_samples_and_warnings_are_pinned(self, tmp_path, capsys):
        keys = ("total_samples", "warnings")
        lines = _lines_without(keys, tmp_path, capsys)
        lines += _without(keys, (r.to_json_dict() for r in _corpus_reports()))
        assert len(lines) == 18 + 200
        assert _sha256(lines) == self.REPORTS_BUT_BOTH_DIGEST

    # sha256 of the bounds CSV below as the plain bisection wrote it, before
    # it skipped the divergence at midpoints outside a certified interval
    BOUNDS_DIGEST = "6a490574657c97dc8c93adb6ffe07e376b9656937312a201ddf52e57b51b8bd7"

    def test_bounds_table_is_pinned(self, tmp_path):
        # a 60 x 60 grid drawn like the benchmark's bounds ops: distinct alpha
        # in [1, 4] to 4 decimals, c in [1.01, 1024] to 5 significant digits
        rng = random.Random(13)
        alphas = sorted({f"{rng.uniform(1.0, 4.0):.4f}" for _ in range(120)}, key=float)
        cs = sorted({f"{rng.uniform(1.01, 1024.0):.5g}" for _ in range(120)}, key=float)
        alphas, cs = rng.sample(alphas, 60), rng.sample(cs, 60)
        path = tmp_path / "bounds.csv"
        argv = ["bounds", "--alpha", ",".join(alphas), "--c", ",".join(cs), "--csv", str(path)]
        assert main(argv) == 0
        text = path.read_text()
        assert len(text.splitlines()) == 1 + 60 * 60
        assert hashlib.sha256(text.encode()).hexdigest() == self.BOUNDS_DIGEST


class TestBrute:
    def test_triangle(self, k3_file, capsys):
        assert main(["brute", "--problem", "vc", "--input", k3_file, "--alpha", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "size 2"

    def test_json_dash_is_stdout(self, k3_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["brute", "--problem", "vc", "--input", k3_file, "--alpha", "2"]
        assert main([*argv, "--json", "-"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "size 2"
        assert json.loads(out[-1])["size"] == 2
        assert not (tmp_path / "-").exists()

    def test_limit_exceeded_exits_2(self, tmp_path):
        lines = ["p edge 16 0"]
        path = tmp_path / "big.col"
        path.write_text("\n".join(lines) + "\n")
        rc = main(
            ["brute", "--problem", "vc", "--input", str(path), "--alpha", "2"]
        )
        assert rc == 2

    def test_builds_no_oracle(self, k3_file, tmp_path, monkeypatch, capsys):
        import amls.cli as cli

        def refuse(parsed):
            raise AssertionError("brute force needs no extension oracle")

        monkeypatch.setattr(cli, "vc_exact_oracle", refuse)
        monkeypatch.setattr(cli, "hs3_exact_oracle", refuse)
        hs3 = tmp_path / "sets.hs3"
        hs3.write_text("p hs3 4 2\ns 1 2 3\ns 2 3 4\n")
        for problem, path, size in (("vc", k3_file, 2), ("hs3", str(hs3), 1)):
            argv = ["brute", "--problem", problem, "--input", path, "--alpha", "1"]
            assert main(argv) == 0
            assert capsys.readouterr().out.splitlines()[0] == f"size {size}"


class TestFamilies:
    def test_covering_output(self, capsys):
        rc = main(["families", "--kind", "covering", "--n", "4", "--t", "3", "--k", "2"])
        assert rc == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "family covering n=4 q=3 params=3,2"
        assert len(lines) == 4  # three members
        assert "verified" in captured.err

    def test_intersection_output(self, capsys):
        rc = main(
            ["families", "--kind", "intersection", "--n", "4", "--p", "2",
             "--q", "2", "--r", "1"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "family intersection_weak n=4 q=2 params=2,2,1"
        assert len(lines) - 1 <= 3

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "fam.txt"
        rc = main(
            ["families", "--kind", "covering", "--n", "5", "--t", "3", "--k", "1",
             "--out", str(path)]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert path.read_text().splitlines()[0] == "family covering n=5 q=3 params=3,1"

    def test_out_dash_is_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["families", "--kind", "covering", "--n", "5", "--t", "3", "--k", "1"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--out", "-"]) == 0
        assert capsys.readouterr().out == plain
        assert not (tmp_path / "-").exists()

    def test_missing_params_usage_error(self):
        assert main(["families", "--kind", "intersection", "--n", "4"]) == 1

    def test_infeasible_exits_2(self):
        rc = main(
            ["families", "--kind", "intersection", "--n", "4", "--p", "5",
             "--q", "2", "--r", "1"]
        )
        assert rc == 2


class TestImport:
    def test_cli_import_does_not_load_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, amls, amls.cli; "
             "print('numpy' in sys.modules, 'concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, timeout=60, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_commands_run_without_numpy(self, tmp_path):
        # brute force, deterministic search and the families command build
        # coverings and families; none of them may need numpy
        vc10 = tmp_path / "vc10.col"
        vc10.write_text(_graph_text(gen_gnp(10, 0.3, seed=10)))
        commands = [
            ["brute", "--problem", "vc", "--input", str(vc10), "--alpha", "1.5"],
            ["solve", "--problem", "vc", "--input", str(vc10), "--deterministic"],
            ["families", "--kind", "intersection", "--n", "9", "--p", "4", "--q", "5",
             "--r", "2", "--strong"],
            ["families", "--kind", "covering", "--n", "9", "--t", "5", "--k", "3"],
        ]
        main_call = "from amls.cli import main; sys.exit(main(sys.argv[1:]))"
        for argv in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-c", f"import sys; {block}{main_call}", *argv],
                    capture_output=True, text=True, timeout=60, env=_child_env(),
                )
                for block in ("", "sys.modules['numpy'] = None; ")
            ]
            assert [proc.returncode for proc in runs] == [0, 0], runs[1].stderr
            assert runs[1].stdout == runs[0].stdout


# the names `from amls import X` serves, by the layer that defines them
PACKAGE_EXPORTS = {
    "bounds": "BoundQuery BoundReport amls_bound bound_report bound_table brute_bound "
              "emls_bound entropy kl_divergence naive_bound",
    "combinatorics": "IterationCost binomial exact_ratio hyper_tail iteration_cost kappa "
                     "select_t",
    "engine": "ExtensionOracle MonotoneInstance RunConfig RunReport brute_force_search "
              "solve",
    "families": "LimitExceededError SetFamily build_covering build_intersection_family "
                "family_size_bound family_to_text verify_family",
    "problems": "Graph Hypergraph3 ParseError gen_gnp hs3_exact_oracle hs3_system "
                "parse_graph parse_hypergraph vc_exact_oracle vc_matching_oracle vc_system",
}
LAYERS = ("bounds", "combinatorics", "engine", "families", "problems")

# runs one CLI call, then prints the loaded amls modules as the last stderr line
_LIST_MODULES = (
    "import json, sys\n"
    "from amls.cli import main\n"
    "try:\n"
    "    rc = main(sys.argv[1:])\n"
    "finally:\n"
    "    names = sorted(m for m in sys.modules if m.split('.')[0] == 'amls')\n"
    "    print(json.dumps(names), file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


def _cli_modules(*argv):
    """(exit code, loaded amls modules, stderr, stdout) of one CLI call in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _LIST_MODULES, *argv],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    *diagnostics, modules = proc.stderr.splitlines()
    return proc.returncode, json.loads(modules), "\n".join(diagnostics), proc.stdout


class TestImportSet:
    def test_package_import_loads_no_layer(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, amls; print(sorted(m for m in sys.modules if m.startswith('amls')))"],
            capture_output=True, text=True, timeout=60, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["['amls']"]

    def test_bounds_loads_only_bounds(self):
        rc, modules, err, _ = _cli_modules("bounds", "--alpha", "1.5,2", "--c", "2,3")
        assert rc == 0, err
        assert modules == ["amls", "amls.bounds", "amls.cli"]

    def test_bounds_loads_no_dataclasses(self):
        # modules a site hook loaded before amls do not count
        script = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "from amls.cli import main\n"
            "imported = set(sys.modules) - before\n"
            "rc = main(['bounds', '--alpha', '1.5,2', '--c', '2,3'])\n"
            "ran = set(sys.modules) - before\n"
            "watched = {'dataclasses', 'inspect'}\n"
            "print(json.dumps([sorted(imported & watched), sorted(ran & watched)]))\n"
            "sys.exit(rc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]

    def test_families_loads_no_dataclasses(self):
        # modules a site hook loaded before amls do not count
        script = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "from amls.cli import main\n"
            "rc = main(['families', '--kind', 'intersection', '--n', '5', '--p', '2',"
            " '--q', '2', '--r', '1'])\n"
            "ran = set(sys.modules) - before\n"
            "print(json.dumps(sorted(ran & {'dataclasses', 'inspect'})))\n"
            "sys.exit(rc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--problem", "vc", "--input"],
         ["solve", "--problem", "vc", "--deterministic", "--input"],
         ["brute", "--problem", "vc", "--alpha", "2", "--input"],
         ["families", "--kind", "covering", "--n", "4", "--t", "3", "--k", "2"],
         ["bounds", "--alpha", "1.5,2", "--c", "2,3"]],
    )
    def test_commands_load_no_typing(self, argv, p3_file):
        # -S: a site hook may load typing first.  dataclasses comes first, as
        # on some Pythons its inspect import loads typing by itself.
        if argv[-1] == "--input":
            argv = [*argv, p3_file]
        script = (
            "import dataclasses, json, sys\n"
            "before = set(sys.modules)\n"
            "from amls.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(json.dumps('typing' in set(sys.modules) - before))\n"
            "sys.exit(rc)\n"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", script, *argv],
                              capture_output=True, text=True, timeout=60, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) is False

    @pytest.mark.parametrize(
        "flags",
        [["solve"], ["solve", "--oracle", "matching"],
         ["solve", "--oracle", "matching", "--deterministic"],
         ["brute", "--alpha", "2"]],
    )
    def test_solves_skip_unused_layers(self, flags, tmp_path):
        # a deterministic solve at c = 1 has t = 0 at every k and needs no
        # family; brute force at n = 0 runs k = 0 alone, on X = {}, and needs
        # no covering
        path = tmp_path / "in.col"
        path.write_text("p edge 0 0\n" if flags[0] == "brute" else P3_TEXT)
        rc, modules, err, out = _cli_modules(*flags, "--problem", "vc", "--input", str(path))
        assert rc == 0, err
        assert flags[0] != "brute" or out.splitlines()[0] == "size 0"
        assert {"amls.engine", "amls.problems"} <= set(modules)
        assert not {"amls.families", "amls.bounds"} & set(modules)

    def test_families_loads_only_families(self):
        rc, modules, err, _ = _cli_modules("families", "--kind", "covering", "--n", "4",
                                           "--t", "3", "--k", "2")
        assert rc == 0, err
        assert modules == ["amls", "amls.cli", "amls.combinatorics", "amls.families"]

    def test_brute_skips_bounds_and_verification(self, p3_file):
        rc, modules, err, _ = _cli_modules("brute", "--problem", "vc", "--input", p3_file,
                                           "--alpha", "2")
        assert rc == 0, err
        assert "amls.families" in modules
        assert "amls.bounds" not in modules

    @pytest.mark.parametrize(
        "argv",
        [["brute", "--problem", "vc", "--alpha", "2"],
         ["solve", "--problem", "vc", "--deterministic"]],
    )
    def test_limit_exits_2_in_a_fresh_process(self, argv, tmp_path):
        path = tmp_path / "n15.col"
        path.write_text(_graph_text(gen_gnp(15, 0.3, seed=15)))
        rc, modules, err, _ = _cli_modules(*argv, "--input", str(path))
        assert rc == 2
        assert "limited to n <= 14, got n=15" in err
        assert "Traceback" not in err

    def test_exports_resolve_to_layer_objects(self):
        import importlib

        names = [name for group in PACKAGE_EXPORTS.values() for name in group.split()]
        assert len(names) == 41
        assert sorted(amls.__all__) == sorted(names)
        for module, group in PACKAGE_EXPORTS.items():
            layer = importlib.import_module(f"amls.{module}")
            assert getattr(amls, module) is layer
            for name in group.split():
                assert getattr(amls, name) is getattr(layer, name), name
        namespace = {}
        exec("from amls import solve, Graph, amls_bound", namespace)
        assert namespace["solve"] is amls.engine.solve

    def test_unknown_attributes_raise(self):
        import amls.cli as cli
        import amls.engine as engine

        for module in (amls, cli, engine):
            with pytest.raises(AttributeError):
                module.no_such_name


class TestLazyBinding:
    """A name set on a module before its layer is bound survives the bind."""

    SENTINEL = object()

    def _unbind(self, monkeypatch, module, names):
        # monkeypatch puts back whatever was bound when the test ends
        for name in names:
            monkeypatch.delitem(vars(module), name, raising=False)

    def test_package(self, monkeypatch):
        import amls.engine as engine

        self._unbind(monkeypatch, amls, amls._EXPORTS["engine"])
        monkeypatch.setitem(vars(amls), "solve", self.SENTINEL)
        assert amls.brute_force_search is engine.brute_force_search  # binds the engine layer
        assert amls.solve is self.SENTINEL
        assert amls.engine is engine

    def test_cli(self, monkeypatch):
        import amls.cli as cli
        import amls.engine as engine

        self._unbind(monkeypatch, cli, cli._LAYERS["engine"])
        monkeypatch.setitem(vars(cli), "solve", self.SENTINEL)
        assert cli.RunConfig is engine.RunConfig  # binds the engine layer
        assert cli.solve is self.SENTINEL
        cli._bind("engine")
        assert cli.solve is self.SENTINEL

    def test_engine(self, monkeypatch):
        import amls.engine as engine
        import amls.families as families

        names = ("build_covering", "build_intersection_family", "check_limit")
        self._unbind(monkeypatch, engine, names)
        monkeypatch.setitem(vars(engine), "build_covering", self.SENTINEL)
        engine._bind("families")
        assert engine.build_covering is self.SENTINEL
        assert engine.check_limit is families.check_limit
        assert engine.families is families


# the package names no module of src/amls or perfbench uses, with the reason each stays
UNUSED_EXPORTS = {
    "kl_divergence": "the checked divergence; bounds._divergence repeats its float "
                     "operations unchecked, and the tests compare the two",
    "family_size_bound": "the greedy family's size guarantee, which a printed solve "
                         "plan is to show next to each family's size",
}


def _used_names(path: Path) -> set:
    """Every name, attribute and imported name in one Python file."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


class TestExports:
    def test_every_package_name_has_a_caller(self):
        root = Path(__file__).resolve().parent.parent
        files = [*(root / "src" / "amls").glob("*.py"), *(root / "perfbench").glob("*.py")]
        used = set().union(*map(_used_names, files))
        assert set(amls.__all__) - used == set(UNUSED_EXPORTS)

    @pytest.mark.parametrize("layer", LAYERS)
    def test_star_import_serves_every_listed_name(self, layer):
        import importlib

        namespace = {}
        exec(f"from amls.{layer} import *", namespace)  # a stale name raises
        assert set(importlib.import_module(f"amls.{layer}").__all__) <= set(namespace)

    def test_package_names_are_listed_by_their_layer(self):
        namespace = {}
        exec("from amls import *", namespace)
        for name in amls.__all__:
            layer = sys.modules[namespace[name].__module__]
            assert layer.__name__ in {f"amls.{module}" for module in LAYERS}, name
            assert name in layer.__all__, name


# every ```python block of the README, in the order it appears
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```",
    (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8"),
    flags=re.DOTALL | re.MULTILINE,
)


class TestReadme:
    def test_has_a_python_block(self):
        assert README_BLOCKS

    @pytest.mark.parametrize("index", range(len(README_BLOCKS)))
    def test_python_block_runs(self, index, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", README_BLOCKS[index]],
            capture_output=True, text=True, timeout=60, env=_child_env(), cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr


class TestTracer:
    SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "spans.py")

    def _span_names(self, tmp_path, *argv):
        out = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, self.SPANS, str(out), "0", *argv],
            capture_output=True, text=True, timeout=60, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return [span[0] for span in json.loads(out.read_text())["spans"]]

    def test_wrappers_installed_before_the_call_stay(self, tmp_path):
        # the tracer wraps cli and engine names right after `import amls.cli`;
        # binding a layer later must keep the wrappers
        vc10 = tmp_path / "vc10.col"
        vc10.write_text(_graph_text(gen_gnp(10, 0.3, seed=10)))
        names = self._span_names(
            tmp_path, "solve", "--problem", "vc", "--input", str(vc10), "--deterministic"
        )
        assert {"cli.main", "cli.parse", "engine.solve", "families.build",
                "combinatorics.kappa"} <= set(names)
        names = self._span_names(tmp_path, "bounds", "--alpha", "1.5,2", "--c", "2,3")
        assert names.count("bounds.report") == 4
        assert names.count("bounds.amls_bound") == 4
        assert "bounds.table" in names

    def test_randomized_solve_and_brute_call_the_wrapped_names(self, tmp_path):
        # a refactor that stops looking these names up would blind the benchmark
        vc10 = tmp_path / "vc10.col"
        vc10.write_text(_graph_text(gen_gnp(10, 0.3, seed=10)))
        names = set(self._span_names(tmp_path, "solve", "--problem", "vc", "--input", str(vc10)))
        assert {"combinatorics.select_t", "problems.extend", "engine.solve"} <= names
        names = set(self._span_names(
            tmp_path, "brute", "--problem", "vc", "--input", str(vc10), "--alpha", "1.5"
        ))
        assert {"families.build", "problems.membership", "engine.solve"} <= names


class TestNonFinite:
    @pytest.mark.parametrize(
        "argv",
        [["solve", "--problem", "vc", "--alpha", "inf"],
         ["solve", "--problem", "vc", "--boost", "inf"],
         ["brute", "--problem", "vc", "--alpha", "inf"],
         ["bounds", "--alpha", "inf", "--c", "2"],
         ["bounds", "--alpha", "2", "--c", "inf"],
         ["bounds", "--alpha", "2", "--c", "2", "--tol", "inf"],
         ["bounds", "--alpha", "2", "--c", "2", "--tol", "0.6"],
         ["brute", "--problem", "vc", "--alpha", "nan"]],
    )
    def test_rejected_without_traceback(self, argv, p3_file):
        if argv[0] != "bounds":
            argv = argv + ["--input", p3_file]
        proc = subprocess.run(
            [sys.executable, "-m", "amls.cli", *argv],
            capture_output=True, text=True, timeout=60, env=_child_env(),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        if argv[0] == "brute":  # the message solve and bounds give
            assert proc.stderr == f"error: alpha must be finite and >= 1, got {argv[4]}\n"


class TestTopLevel:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        for args in (["--help"], ["bounds", "--help"], ["solve", "--help"],
                     ["families", "--help"], ["brute", "--help"]):
            assert main(args) == 0
            assert "usage" in capsys.readouterr().out

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_workers_is_usage_error(self, p3_file, capsys):
        # sampling runs in one thread: the pure-Python oracles hold the GIL
        assert main(["solve", "--problem", "vc", "--input", p3_file, "--workers", "2"]) == 1
        assert capsys.readouterr().out == ""

    def test_bench_is_usage_error(self, capsys):
        # success fractions are checked by test_acceptance's criterion 4b
        assert main(["bench", "--preset", "small-vc"]) == 1
        assert capsys.readouterr().out == ""

    def test_verify_is_usage_error(self, capsys):
        # its checks are the tier-1 tests: test_acceptance and the module tests
        for args in (["verify"], ["verify", "--suite", "all"]):
            assert main(args) == 1
            assert capsys.readouterr().out == ""
        assert main(["--help"]) == 0
        assert "verify" not in capsys.readouterr().out

    def test_limit_flags_are_usage_errors(self, p3_file, capsys):
        # the universe-size limit is the constant families.LIMIT
        for args in (["solve", "--problem", "vc", "--input", p3_file, "--family-limit", "14"],
                     ["brute", "--problem", "vc", "--input", p3_file, "--alpha", "2",
                      "--limit", "14"],
                     ["families", "--kind", "covering", "--n", "4", "--t", "3", "--k", "2",
                      "--limit", "14"]):
            assert main(args) == 1
            assert capsys.readouterr().out == ""
            assert main([args[0], "--help"]) == 0
            assert "limit" not in capsys.readouterr().out
