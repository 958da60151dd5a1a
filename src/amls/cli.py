"""Command-line front end.

Subcommands:

  bounds    exponent-base table for (alpha, c) pairs, on stdout or as CSV
  solve     run the randomized or deterministic approximate search on an
            instance file
  brute     covering-driven approximate search (no extension oracle)
  families  build and print a set-intersection family or covering

Exit codes: 0 success, 1 usage error, 2 runtime error (bad input file,
construction limit exceeded, failed verification).  stdout carries data;
diagnostics go to stderr.  Vertices in instance files and in the printed
solutions are 1-based (DIMACS convention); JSON reports keep the engine's
0-based internal ids.

Importing this module loads no other layer of the package.  Each
subcommand binds the names it calls from the layers in ``_LAYERS`` when it
starts, by the package's one lazy-loading rule (``amls._lazy``).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, _lazy

# layer -> the names this module calls from it
_LAYERS = {
    "bounds": ("CSV_HEADER", "bound_table", "format_csv_rows"),
    "engine": ("RunConfig", "brute_force_search", "solve"),
    "families": ("build_covering", "build_intersection_family", "family_to_text", "verify_family"),
    "problems": (
        "hs3_exact_oracle", "hs3_system", "parse_graph", "parse_hypergraph",
        "vc_exact_oracle", "vc_matching_oracle", "vc_system",
    ),
}
_bind, __getattr__ = _lazy(globals(), _LAYERS)

PRESETS = {
    "vc-1.1": ([1.1], [1.1652]),  # 1.1-approximate vertex cover extension base
    "dfvs-2": ([2.0], [1024.0]),  # 2-approximate directed feedback vertex set base
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty float list: {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="amls", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser(
        "bounds",
        help="exponent bases for (alpha, c) pairs",
        description="Print one row per (alpha, c) pair of the cartesian "
        "product: the local-search base plus the brute/naive/emls benchmarks.",
    )
    p.add_argument("--alpha", type=_float_list, help="comma-separated ratios, each >= 1")
    p.add_argument("--c", type=_float_list, help="comma-separated oracle bases, each >= 1")
    p.add_argument("--preset", choices=sorted(PRESETS), help="a known (alpha, c) pair")
    p.add_argument("--tol", type=float, default=1e-12, help="bisection tolerance")
    p.add_argument("--csv", metavar="PATH", help="write CSV here, '-' for stdout (the default)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("solve", help="approximate search on an instance file")
    p.add_argument("--problem", choices=("vc", "hs3"), required=True)
    p.add_argument("--input", required=True, metavar="FILE", help="instance path, '-' for stdin")
    p.add_argument("--oracle", choices=("exact", "matching"), default="exact")
    p.add_argument("--alpha", type=float, help="target ratio (>= the oracle's own ratio)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boost", type=float, default=3.0, help="repetition multiplier")
    p.add_argument("--deterministic", action="store_true", help="family-driven mode")
    p.add_argument("--stop-at-first", action="store_true", help="return at the first qualifying k")
    p.add_argument("--max-repetitions", type=int, help="cap repetitions per k (degrades the guarantee)")
    p.add_argument("--json", metavar="PATH", help="write the JSON report here, '-' for stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("brute", help="covering-driven search, no oracle")
    p.add_argument("--problem", choices=("vc", "hs3"), required=True)
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_brute)

    p = sub.add_parser("families", help="build a set-intersection family or covering")
    p.add_argument("--kind", choices=("intersection", "covering"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, help="target subset size (intersection)")
    p.add_argument("--q", type=int, help="member size (intersection)")
    p.add_argument("--r", type=int, help="required overlap (intersection)")
    p.add_argument("--strong", action="store_true", help="require overlap exactly r")
    p.add_argument("--t", type=int, help="member size (covering)")
    p.add_argument("--k", type=int, help="covered subset size (covering)")
    p.add_argument("--out", metavar="PATH", help="write here, '-' for stdout (the default)")
    p.set_defaults(func=_cmd_families)

    return parser


def _cmd_bounds(args) -> int:
    _bind("bounds")
    if args.preset is not None:
        if args.alpha is not None or args.c is not None:
            print("error: --preset conflicts with --alpha/--c", file=sys.stderr)
            return 1
        alphas, cs = PRESETS[args.preset]
    else:
        if args.alpha is None or args.c is None:
            print("error: need --alpha and --c (or --preset)", file=sys.stderr)
            return 1
        alphas, cs = args.alpha, args.c
    reports = bound_table(alphas, cs, tol=args.tol)
    _write("\n".join([CSV_HEADER] + format_csv_rows(reports)) + "\n", args.csv or "-")
    return 0


def _write(text: str, path: str) -> None:
    """Write text to the file at path, or to stdout where path is '-'."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_instance(args):
    """The parsed graph or hypergraph of args.input and its set system."""
    text = _read_input(args.input)
    if args.problem == "vc":
        graph = parse_graph(text)
        return graph, vc_system(graph)
    hyper = parse_hypergraph(text)
    return hyper, hs3_system(hyper)


def _print_report(rep, json_path) -> None:
    print(f"size {rep.size}")
    print(" ".join(["solution", *(str(v + 1) for v in rep.solution)]))
    print(
        f"mode={rep.mode} k_found={rep.k_found} samples={rep.total_samples} "
        f"elapsed={rep.elapsed:.3f}s warnings={len(rep.warnings)}",
        file=sys.stderr,
    )
    for w in rep.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if json_path:
        _write(rep.to_json() + "\n", json_path)


def _cmd_solve(args) -> int:
    from dataclasses import replace

    _bind("engine", "problems")
    parsed, inst = _load_instance(args)
    if args.problem == "vc":
        oracle = (vc_matching_oracle if args.oracle == "matching" else vc_exact_oracle)(parsed)
    elif args.oracle == "matching":
        raise ValueError("the matching oracle applies to vc only")
    else:
        oracle = hs3_exact_oracle(parsed)
    if args.alpha is not None:
        if args.alpha < oracle.alpha:
            print(
                f"error: --alpha {args.alpha} is below the oracle's ratio {oracle.alpha}",
                file=sys.stderr,
            )
            return 1
        oracle = replace(oracle, alpha=args.alpha)
    cfg = RunConfig(
        seed=args.seed,
        boost=args.boost,
        max_repetitions=args.max_repetitions,
        deterministic=args.deterministic,
        stop_at_first=args.stop_at_first,
    )
    rep = solve(inst, oracle, cfg)
    _print_report(rep, args.json)
    return 0


def _cmd_brute(args) -> int:
    _bind("engine", "problems")
    rep = brute_force_search(_load_instance(args)[1], args.alpha)
    _print_report(rep, args.json)
    return 0


def _cmd_families(args) -> int:
    _bind("families")
    if args.kind == "intersection":
        missing = [f for f in ("p", "q", "r") if getattr(args, f) is None]
        if missing:
            print(f"error: intersection families need --{' --'.join(missing)}", file=sys.stderr)
            return 1
        family = build_intersection_family(args.n, args.p, args.q, args.r, strong=args.strong)
    else:
        if args.t is None or args.k is None:
            print("error: coverings need --t and --k", file=sys.stderr)
            return 1
        family = build_covering(args.n, args.t, args.k)
    _write(family_to_text(family), args.out or "-")
    if not verify_family(family):
        print("verification FAILED", file=sys.stderr)
        return 2
    print(f"verified: {len(family.members)} members", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError and LimitExceededError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
