"""CLI behavior: exit codes, output stability, file handling."""

import ast
import functools
import hashlib
import importlib.util
import json
import os
import random
import re
import site
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

import amls
from amls.bounds import CSV_HEADER, bound_table, format_csv_rows
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


def _benchmark_grid():
    """A 60 x 60 grid drawn like the benchmark's bounds ops: distinct alpha
    in [1, 4] to 4 decimals, c in [1.01, 1024] to 5 significant digits."""
    rng = random.Random(13)
    alphas = sorted({f"{rng.uniform(1.0, 4.0):.4f}" for _ in range(120)}, key=float)
    cs = sorted({f"{rng.uniform(1.01, 1024.0):.5g}" for _ in range(120)}, key=float)
    return rng.sample(alphas, 60), rng.sample(cs, 60)


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
        assert out[1].startswith("2,1024,")
        fields = out[1].split(",")
        assert abs(float(fields[2]) - 1.2499) < 1e-3
        assert fields[6] == "brute"

    def test_trivial_pair(self, capsys):
        assert main(["bounds", "--alpha", "1", "--c", "2"]) == 0
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(fields[2]) == 1.5

    def test_vc_style_pair(self, capsys):
        assert main(["bounds", "--alpha", "1.1", "--c", "1.1652"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith("1.1,1.1652,")
        assert abs(float(row.split(",")[2]) - 1.114) < 1e-3

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

    @pytest.mark.parametrize("alpha,c", [("", "2"), ("2", ","), (",,", "")])
    def test_empty_list_is_usage_error(self, alpha, c, capsys):
        assert main(["bounds", "--alpha", alpha, "--c", c]) == 1
        assert capsys.readouterr().out == ""

    def test_runtime_error_on_bad_domain(self, capsys):
        assert main(["bounds", "--alpha", "0.5", "--c", "2"]) == 2

    def test_grid_is_the_table(self, tmp_path, capsys):
        # built one alpha at a time, the text is still the whole table's
        alphas, cs = [1, 1.5, 2, 3.7], [1, 1.1652, 2, 1024]
        expected = "\n".join([CSV_HEADER, *format_csv_rows(bound_table(alphas, cs)), ""])
        argv = ["bounds", "--alpha", "1,1.5,2,3.7", "--c", "1,1.1652,2,1024"]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        path = tmp_path / "table.csv"
        assert main([*argv, "--csv", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == expected

    @pytest.mark.parametrize(
        "alpha,c,message",
        [("2,nan", "inf", "c must be finite and >= 1, got inf"),
         ("nan,2", "inf", "alpha must be finite and >= 1, got nan"),
         # the first alpha's rows are made before the second one fails
         ("2,nan", "2", "alpha must be finite and >= 1, got nan")],
    )
    def test_first_error_writes_nothing(self, alpha, c, message, tmp_path, capsys):
        argv = ["bounds", "--alpha", alpha, "--c", c]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        path = tmp_path / "table.csv"
        assert main([*argv, "--csv", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not path.exists()

    def test_table_memory_is_near_its_text(self, tmp_path):
        # the text, its encoded bytes and one alpha's reports and lines: a
        # traced peak of 2.2 times the text, against 7.9 when every report
        # and line was held beside the text at once
        alphas, cs = _benchmark_grid()
        argv = ["bounds", "--alpha", ",".join(alphas), "--c", ",".join(cs)]
        path = tmp_path / "table.csv"
        assert main(["bounds", "--alpha", "2", "--c", "2", "--csv", str(path)]) == 0  # binds bounds
        tracemalloc.start()
        try:
            assert main([*argv, "--csv", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(path.read_text())

    @pytest.mark.parametrize(
        "argv",
        [["--alpha", "1e16", "--c", "1.7e308"],  # c near the largest float
         ["--alpha", "144", "--c", "2"],  # alpha**alpha overflows
         ["--alpha", "1e12", "--c", "2"],  # bracket (c-1)/alpha about TOL wide
         ["--alpha", "2", "--c", "1.000000000001"]],  # bracket narrower than TOL
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

    @pytest.mark.parametrize(
        "argv, summary",
        [
            # k = 0 and 1 miss exhaustively, so the hit at k = 2 is proven optimal
            (["solve", "--deterministic"], "mode=deterministic k_found=2 opt_lower=2 samples=4"),
            (["brute", "--alpha", "1"], "mode=brute k_found=2 opt_lower=2 samples=7"),
            # the greedy matching has one edge: OPT >= 1, and size 2 = 2 * 1
            (["solve", "--oracle", "matching"], "mode=randomized k_found=1 opt_lower=1 samples=2"),
        ],
    )
    def test_summary_line_shows_the_proven_bound(self, argv, summary, k3_file, capsys):
        assert main([*argv, "--problem", "vc", "--input", k3_file]) == 0
        line = capsys.readouterr().err.splitlines()[0]
        assert re.fullmatch(rf"{summary} elapsed=\d+\.\d{{3}}s warnings=0", line), line

    def test_hs3(self, tmp_path, capsys):
        path = tmp_path / "sets.hs3"
        path.write_text("p hs3 3 1\ns 1 2 3\n")
        assert main(["solve", "--problem", "hs3", "--input", str(path), "--seed", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "size 1"

    def test_rejected_alpha_exits_2(self, k3_file, capsys):
        # the range rule first, then the oracle's own ratio: one exit code
        cases = [
            (["solve", "--alpha", "0.5"], "alpha must be finite and >= 1, got 0.5"),
            (["solve", "--alpha", "nan"], "alpha must be finite and >= 1, got nan"),
            (["solve", "--alpha", "inf"], "alpha must be finite and >= 1, got inf"),
            (["solve", "--oracle", "matching", "--alpha", "1.5"],
             "--alpha 1.5 is below the oracle's ratio 2.0"),
            (["brute", "--alpha", "0.5"], "alpha must be finite and >= 1, got 0.5"),
        ]
        for argv, message in cases:
            assert main([*argv, "--problem", "vc", "--input", k3_file]) == 2, argv
            assert capsys.readouterr() == ("", f"error: {message}\n"), argv

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
    # 120 -> 94 and hs14 623 -> 187 samples; nothing else moved), and
    # with a run stopped once its best is proven optimal (deterministic vc14
    # 94 -> 15 and hs14 187 -> 30; the four randomized runs, 23, 17, 24 and
    # 17, stay); the deterministic VC run uses G(14, 0.3) because
    # families.LIMIT is 14
    DIGEST = "3afeb00010a18361553363f1de68ce0c774a23a9a8a593e5f0822152fca6b137"

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
    # LOOPS_DIGEST, and of the k's after a proven optimum, as in DIGEST
    # (deterministic vc14 94 -> 15 and hs14 187 -> 30; the matching and
    # loops runs stay)
    REPORTS_BUT_WARNINGS_DIGEST = "6e07d4a8964fb66606b1ae8986913c9e740ed57534f448cb27dee6061691c4a6"

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
        alphas, cs = _benchmark_grid()
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

    def test_missing_params_usage_error(self, capsys):
        assert main(["families", "--kind", "intersection", "--n", "4"]) == 1
        assert "need --p --q --r" in capsys.readouterr().err
        assert main(["families", "--kind", "covering", "--n", "4", "--t", "3"]) == 1
        assert main(["families", "--kind", "covering", "--n", "4", "--k", "2"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: coverings need --t and --k"] * 2

    def test_infeasible_exits_2(self):
        rc = main(
            ["families", "--kind", "intersection", "--n", "4", "--p", "5",
             "--q", "2", "--r", "1"]
        )
        assert rc == 2


# the names `from amls import X` serves, by the layer that defines them
PACKAGE_EXPORTS = {
    "bounds": "BoundReport amls_bound bound_report bound_table brute_bound emls_bound "
              "entropy naive_bound",
    "combinatorics": "IterationCost kappa select_t",
    "engine": "ExtensionOracle MonotoneInstance RunConfig RunReport brute_force_search "
              "solve",
    "families": "LimitExceededError SetFamily build_covering build_intersection_family "
                "family_to_text verify_family",
    "problems": "Graph Hypergraph3 ParseError gen_gnp hs3_exact_oracle hs3_system "
                "parse_graph parse_hypergraph vc_exact_oracle vc_matching_oracle vc_system",
}
LAYERS = ("bounds", "combinatorics", "engine", "families", "problems")

# One row per command: its argv ("" imports amls alone; {p3} is a 3-vertex
# path, {empty} the 0-vertex graph, {two} two 3-sets that vertex 2 hits),
# the amls modules it loads, exactly, and the stdlib modules it must not
# load (None: no module beyond its amls ones).  Brute force at n = 0 runs
# k = 0 alone, on X = {}, and needs no covering; a deterministic solve at
# c = 1 (matching) has t = 0 at every k and needs no family.  A randomized
# solve plans its repetitions on select_t's int pair and a solve at c = 1
# has p = 1 exactly at every k, so neither builds a Fraction or a Decimal
# and neither loads rationals; at alpha 1.3333333333333333 the near-tie
# audit may take its 60-digit Decimal branch, so that row forbids only
# fractions.  A deterministic solve at c > 1 weighs its rows by kappa's int
# pair and builds its families on int bitsets, so it loads no rationals
# either.
_NEVER = ("numpy", "concurrent.futures", "typing")
_NO_DATACLASSES = ("dataclasses", "inspect")
_NO_RATIONALS = ("fractions", "decimal", "numbers")
_SOLVE = "amls amls.cli amls.combinatorics amls.engine amls.problems"
IMPORT_TABLE = {
    "": ("amls", None),
    "bounds --alpha 1.5,2 --c 2,3": ("amls amls.bounds amls.cli", _NEVER + _NO_DATACLASSES),
    "families --kind covering --n 4 --t 3 --k 2": (
        "amls amls.cli amls.families", _NEVER + _NO_DATACLASSES + _NO_RATIONALS,
    ),
    "families --kind intersection --n 6 --p 3 --q 3 --r 2 --strong": (
        "amls amls.cli amls.families", _NEVER + _NO_DATACLASSES + _NO_RATIONALS,
    ),
    "solve --problem vc --input {p3}": (_SOLVE, _NEVER + _NO_RATIONALS),
    "solve --problem vc --alpha 2 --input {p3}": (_SOLVE, _NEVER + _NO_RATIONALS),
    "solve --problem vc --alpha 1.3333333333333333 --input {p3}": (
        _SOLVE, _NEVER + ("fractions",),
    ),
    "solve --problem hs3 --input {two}": (_SOLVE, _NEVER + _NO_RATIONALS),
    "solve --problem vc --deterministic --input {p3}": (
        f"{_SOLVE} amls.families", _NEVER + _NO_RATIONALS,
    ),
    "solve --problem hs3 --deterministic --input {two}": (
        f"{_SOLVE} amls.families", _NEVER + _NO_RATIONALS,
    ),
    "solve --problem vc --oracle matching --input {p3}": (_SOLVE, _NEVER + _NO_RATIONALS),
    "solve --problem vc --oracle matching --deterministic --input {p3}": (
        _SOLVE, _NEVER + _NO_RATIONALS,
    ),
    "brute --problem vc --alpha 1.5 --input {p3}": (
        "amls amls.cli amls.engine amls.families amls.problems", _NEVER + _NO_RATIONALS,
    ),
    "brute --problem vc --alpha 2 --input {empty}": (
        "amls amls.cli amls.engine amls.problems", _NEVER + _NO_RATIONALS,
    ),
}

# -S: no site hook loads modules first, and this process's site directories
# go on sys.path by hand, after the stdlib as the hook puts them, so an
# installed numpy stays importable.  amls's own import is importlib, and
# dataclasses comes first where a row allows it, as on some Pythons its
# inspect import loads typing by itself.  A first meta path finder, which
# finds nothing, records the order in which imports start, before any module
# compiles (sys.modules holds modules in the order they finished).  Prints
# the modules the call loaded, the imports it started in that order, then
# whether numpy is importable.
_IMPORT_CHILD = (
    "import sys\n"
    "sys.path += {site_dirs!r}\n"
    "import importlib{preload}\n"
    "starts = []\n"
    "class Starts:\n"
    "    find_spec = staticmethod(lambda name, *rest: starts.append(name))\n"
    "sys.meta_path.insert(0, Starts)\n"
    "before = set(sys.modules)\n"
    "if sys.argv[1:]:\n"
    "    from amls.cli import main\n"
    "    rc = main(sys.argv[1:])\n"
    "else:\n"
    "    import amls\n"
    "    rc = 0\n"
    "loaded = sorted(set(sys.modules) - before)\n"
    "print(*loaded)\n"
    "print(*starts)\n"
    "import importlib.util\n"
    "print(importlib.util.find_spec('numpy') is not None)\n"
    "sys.exit(rc)\n"
)
_SITE_DIRS = site.getsitepackages() + (
    [site.getusersitepackages()] if site.ENABLE_USER_SITE else []
)


@pytest.fixture(scope="module")
def import_row(tmp_path_factory):
    """Runs one CLI argv, an IMPORT_TABLE row or any other, once per module,
    in a fresh -S interpreter, and returns (the modules it loaded, its stdout
    lines before that list, whether numpy was importable there, its exit
    code, its stderr, the imports it started, in order).  {p3}, {empty},
    {n15} (G(15, 0.3), one vertex over the size limit) and {two} in argv
    name instance files.  preload=False loads no dataclasses first,
    whatever the row allows."""
    root = tmp_path_factory.mktemp("import_rows")
    paths = {name: root / f"{name}.col" for name in ("p3", "empty", "n15")}
    paths["two"] = root / "two.hs3"
    paths["p3"].write_text(P3_TEXT)
    paths["empty"].write_text("p edge 0 0\n")
    paths["n15"].write_text(_graph_text(gen_gnp(15, 0.3, seed=15)))
    paths["two"].write_text("p hs3 4 2\ns 1 2 3\ns 2 3 4\n")

    @functools.cache
    def run(argv, preload=True):
        absent = IMPORT_TABLE.get(argv, ("", None))[1]
        preload = preload and absent is not None and "dataclasses" not in absent
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             _IMPORT_CHILD.format(site_dirs=_SITE_DIRS,
                                  preload=", dataclasses" if preload else ""),
             *(arg.format(**paths) for arg in argv.split())],
            capture_output=True, text=True, timeout=60, env=_child_env(),
        )
        lines = proc.stdout.splitlines()
        assert len(lines) >= 3, proc.stderr  # the child got to its last prints
        *out, loaded, starts, numpy_importable = lines
        return (frozenset(loaded.split()), out, numpy_importable == "True",
                proc.returncode, proc.stderr, tuple(starts.split()))

    return run


def _amls_modules(loaded):
    return sorted(m for m in loaded if m.split(".")[0] == "amls")


_BOUNDS_ROW = "bounds --alpha 1.5,2 --c 2,3"
_COVERING_ROW = "families --kind covering --n 4 --t 3 --k 2"
_INTERSECTION_ROW = "families --kind intersection --n 6 --p 3 --q 3 --r 2 --strong"
_BRUTE_ROW = "brute --problem vc --alpha 1.5 --input {p3}"


class TestImport:
    def test_rows_can_import_numpy(self, import_row):
        # the numpy cells check something only where numpy is importable
        importable = importlib.util.find_spec("numpy") is not None
        for argv in IMPORT_TABLE:
            assert import_row(argv)[2] == importable, argv

    def test_cli_import_does_not_load_numpy(self, import_row):
        for argv in IMPORT_TABLE:
            assert not {"numpy", "concurrent.futures"} & import_row(argv)[0], argv

    def test_commands_run_without_numpy(self, import_row):
        # brute force, deterministic search and the families command build
        # coverings and families; a run that never imports numpy needs none
        for argv in (_BRUTE_ROW, "solve --problem vc --deterministic --input {p3}",
                     _INTERSECTION_ROW, _COVERING_ROW):
            assert "numpy" not in import_row(argv)[0], argv


class TestImportSet:
    @pytest.mark.parametrize("argv", IMPORT_TABLE, ids=lambda argv: argv or "import amls")
    def test_import_table(self, argv, import_row):
        amls_modules, absent = IMPORT_TABLE[argv]
        loaded, _, _, rc, err, _ = import_row(argv)
        assert rc == 0, err
        assert _amls_modules(loaded) == sorted(amls_modules.split())
        if absent is None:
            assert loaded == set(amls_modules.split())
        else:
            assert loaded & set(absent) == set()

    # The tests below each check one cell of the table, as named.

    def test_package_import_loads_no_layer(self, import_row):
        assert _amls_modules(import_row("")[0]) == ["amls"]

    def test_package_import_loads_only_importlib(self, import_row):
        assert import_row("")[0] == {"amls"}

    def test_bounds_loads_only_bounds(self, import_row):
        assert _amls_modules(import_row(_BOUNDS_ROW)[0]) == ["amls", "amls.bounds", "amls.cli"]

    def test_bounds_loads_no_dataclasses(self, import_row):
        assert not {"dataclasses", "inspect"} & import_row(_BOUNDS_ROW)[0]

    def test_families_loads_no_dataclasses(self, import_row):
        assert not {"dataclasses", "inspect"} & import_row(_INTERSECTION_ROW)[0]

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--problem", "vc", "--input", "{p3}"],
         ["solve", "--problem", "vc", "--deterministic", "--input", "{p3}"],
         ["brute", "--problem", "vc", "--alpha", "1.5", "--input", "{p3}"],
         ["families", "--kind", "covering", "--n", "4", "--t", "3", "--k", "2"],
         ["bounds", "--alpha", "1.5,2", "--c", "2,3"]],
    )
    def test_commands_load_no_typing(self, argv, import_row):
        assert "typing" not in import_row(" ".join(argv))[0]

    @pytest.mark.parametrize(
        "flags",
        [["solve"], ["solve", "--oracle", "matching"],
         ["solve", "--oracle", "matching", "--deterministic"],
         ["brute", "--alpha", "2"]],
    )
    def test_solves_skip_unused_layers(self, flags, import_row):
        # a deterministic solve at c = 1 has t = 0 at every k and needs no
        # family; brute force at n = 0 runs k = 0 alone, on X = {}, and needs
        # no covering
        graph = "{empty}" if flags[0] == "brute" else "{p3}"
        command, *rest = flags
        argv = " ".join([command, "--problem", "vc", *rest, "--input", graph])
        loaded, out, *_ = import_row(argv)
        assert flags[0] != "brute" or out[0] == "size 0"
        assert {"amls.engine", "amls.problems"} <= loaded
        assert not {"amls.families", "amls.bounds"} & loaded

    def test_families_loads_only_families(self, import_row):
        assert _amls_modules(import_row(_COVERING_ROW)[0]) == [
            "amls", "amls.cli", "amls.families",
        ]

    def test_brute_skips_bounds_and_verification(self, import_row):
        # nor the cost model: a brute plan row is t = floor(alpha*k)
        assert _amls_modules(import_row(_BRUTE_ROW)[0]) == [
            "amls", "amls.cli", "amls.engine", "amls.families", "amls.problems",
        ]

    @pytest.mark.parametrize("argv", [[_BRUTE_ROW], [_INTERSECTION_ROW]])
    def test_brute_and_families_load_no_rational_modules(self, argv, import_row):
        assert not {"fractions", "decimal", "numbers"} & import_row(argv[0])[0]

    @pytest.mark.parametrize(
        "argv",
        [["brute", "--problem", "vc", "--alpha", "2"],
         ["solve", "--problem", "vc", "--deterministic"]],
    )
    def test_limit_exits_2_in_a_fresh_process(self, argv, import_row):
        rc, err = import_row(" ".join([*argv, "--input", "{n15}"]))[3:5]
        assert rc == 2
        assert "limited to n <= 14, got n=15" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve --problem vc", "brute --problem vc --alpha 1.5"])
    def test_layers_start_before_dataclasses(self, command, import_row):
        # problems, the largest module, then engine, which it imports, compile
        # before dataclasses and its inspect chain load: a lower peak RSS
        first = ("amls.problems", "amls.engine", "dataclasses")
        starts = import_row(f"{command} --input {{p3}}", preload=False)[5]
        assert tuple(name for name in starts if name in first) == first

    def test_exports_resolve_to_layer_objects(self):
        import importlib

        names = [name for group in PACKAGE_EXPORTS.values() for name in group.split()]
        assert len(names) == 34
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
        assert set(amls.__all__) - used == set()

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
        # binding a layer later must keep the wrappers.  At alpha 1 this run
        # proves its best optimal at k = 5 (t = 0), before any row needs a
        # family; at alpha 1.5 its best (5) stays above the proven bound (4)
        # and rows with t >= 1 build theirs
        vc10 = tmp_path / "vc10.col"
        vc10.write_text(_graph_text(gen_gnp(10, 0.3, seed=10)))
        names = self._span_names(
            tmp_path, "solve", "--problem", "vc", "--input", str(vc10), "--deterministic",
            "--alpha", "1.5",
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
         ["bounds", "--alpha", "nan", "--c", "2"],
         ["bounds", "--alpha", "2", "--c", "nan"],
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


# Every numeric option with a value it accepts in ASCII: {p3} names the
# 3-vertex path.  int() and float() also read that value with an underscore
# and in Arabic-Indic or fullwidth digits; the CLI rejects those as usage
# errors, as the instance parser does.
NUMERIC_OPTIONS = [
    ("bounds --c 2 --alpha {}", "1.5"),
    ("bounds --alpha 2 --c {}", "2"),
    ("bounds --c 2 --alpha 2,{}", "1.5"),
    ("solve --problem vc --input {p3} --alpha {}", "1.5"),
    ("solve --problem vc --input {p3} --boost {}", "9"),
    ("solve --problem vc --input {p3} --seed {}", "10"),
    ("solve --problem vc --input {p3} --max-repetitions {}", "14"),
    ("brute --problem vc --input {p3} --alpha {}", "1.5"),
    ("families --kind covering --t 3 --k 2 --n {}", "5"),
    ("families --kind covering --n 5 --k 2 --t {}", "3"),
    ("families --kind covering --n 5 --t 3 --k {}", "2"),
    ("families --kind intersection --p 3 --q 3 --r 2 --n {}", "6"),
    ("families --kind intersection --n 6 --q 3 --r 2 --p {}", "3"),
    ("families --kind intersection --n 6 --p 3 --r 2 --q {}", "3"),
    ("families --kind intersection --n 6 --p 3 --q 3 --r {}", "2"),
]
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def _numeric_argv(template, token, p3_file):
    return [arg.format(token, p3=p3_file) for arg in template.split()]


class TestStrictNumbers:
    @pytest.mark.parametrize("template,value", NUMERIC_OPTIONS)
    def test_ascii_value_runs(self, template, value, p3_file, capsys):
        assert main(_numeric_argv(template, value, p3_file)) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("spelling", ["underscore", "arabic-indic", "fullwidth"])
    @pytest.mark.parametrize("template,value", NUMERIC_OPTIONS)
    def test_other_spellings_are_usage_errors(self, template, value, spelling, p3_file,
                                              capsys):
        token = {
            "underscore": f"0_{value}",
            "arabic-indic": value.translate(_ARABIC_INDIC),
            "fullwidth": value.translate(_FULLWIDTH),
        }[spelling]
        assert main(_numeric_argv(template, token, p3_file)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        option = template.split()[-2]
        assert f"argument {option}: " in err and token in err

    @pytest.mark.parametrize(
        "argv,message",
        [(["solve", "--boost", "inf"], "boost must be finite and >= 1, got inf"),
         (["solve", "--boost", "nan"], "boost must be finite and >= 1, got nan"),
         (["brute", "--alpha", "inf"], "alpha must be finite and >= 1, got inf"),
         (["brute", "--alpha", "nan"], "alpha must be finite and >= 1, got nan")],
    )
    def test_inf_and_nan_keep_their_range_error(self, argv, message, p3_file, capsys):
        assert main([*argv, "--problem", "vc", "--input", p3_file]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_exponents_and_long_decimals_run(self, p3_file, capsys):
        assert main(["bounds", "--alpha", "1e12", "--c", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        for argv in (["solve", "--boost", "1e1"],
                     ["solve", "--alpha", "1.3333333333333333"],
                     ["brute", "--alpha", "1.3333333333333333"]):
            assert main([*argv, "--problem", "vc", "--input", p3_file]) == 0, argv
            assert capsys.readouterr().out.splitlines()[0] == "size 1", argv


# The stderr of one usage error per command, byte for byte: argparse's
# usage line and message, its exit 2 mapped to 1 in main.  COLUMNS keeps
# each usage on one line.  Some Python releases list an invalid choice's
# options without quotes, the second form.
_CHOICES = "'bounds', 'solve', 'brute', 'families'"
USAGE_ERRORS = {
    "solve --seed x": (
        "usage: amls solve [-h] --problem {vc,hs3} --input FILE [--oracle {exact,matching}] "
        "[--alpha ALPHA] [--seed SEED] [--boost BOOST] [--deterministic] [--stop-at-first] "
        "[--max-repetitions MAX_REPETITIONS] [--json PATH]\n"
        "amls solve: error: argument --seed: invalid int value: 'x'\n",
    ),
    "brute --problem vc --input g.col": (
        "usage: amls brute [-h] --problem {vc,hs3} --input FILE --alpha ALPHA [--json PATH]\n"
        "amls brute: error: the following arguments are required: --alpha\n",
    ),
    "bounds --alpha nope --c 2": (
        "usage: amls bounds [-h] --alpha ALPHA --c C [--csv PATH]\n"
        "amls bounds: error: argument --alpha: not a comma-separated float list: 'nope'\n",
    ),
    "families --n x": (
        "usage: amls families [-h] --kind {intersection,covering} --n N [--p P] [--q Q] "
        "[--r R] [--strong] [--t T] [--k K] [--out PATH]\n"
        "amls families: error: argument --n: invalid int value: 'x'\n",
    ),
    "frobnicate": tuple(
        "usage: amls [-h] [--version] command ...\n"
        f"amls: error: argument command: invalid choice: 'frobnicate' (choose from {choices})\n"
        for choices in (_CHOICES, _CHOICES.replace("'", ""))
    ),
}


class TestTopLevel:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("argv", USAGE_ERRORS)
    def test_usage_error_text_is_pinned(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "1000")
        assert main(argv.split()) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err in USAGE_ERRORS[argv]

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr() == ("amls 0.1.0\n", "")

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

    def test_tol_is_usage_error(self, capsys):
        # the bisection tolerance is the constant bounds.TOL
        assert main(["bounds", "--alpha", "2", "--c", "2", "--tol", "1e-9"]) == 1
        assert capsys.readouterr().out == ""

    def test_preset_is_usage_error(self, capsys):
        # each former preset is one --alpha/--c pair: (1.1, 1.1652), (2, 1024)
        for args in (["bounds", "--preset", "vc-1.1"],
                     ["bounds", "--alpha", "2", "--c", "2", "--preset", "vc-1.1"]):
            assert main(args) == 1
            assert capsys.readouterr().out == ""
        assert main(["bounds", "--help"]) == 0
        assert "preset" not in capsys.readouterr().out

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
