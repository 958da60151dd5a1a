"""Command-line front end.

Subcommands:

  bounds    exponent-base table for (alpha, c) pairs, on stdout or as CSV
  solve     run the randomized or deterministic approximate search on an
            instance file
  brute     covering-driven approximate search (no extension oracle)
  families  build and print a set-intersection family or covering

Exit codes: 0 success, 1 usage error, 2 runtime error (bad input file,
construction limit exceeded, failed verification).  Usage errors are
argparse's own, its exit 2 mapped to 1 in main.  Numeric options read ASCII
tokens only, by the package's one token rule (``amls._ascii``), so '1_0'
and non-ASCII digits are usage errors, as in instance files.  stdout
carries data; diagnostics go to stderr.  Vertices in instance files and in
the printed solutions are 1-based (DIMACS convention); JSON reports keep
the engine's 0-based internal ids.

Importing this module loads no other layer of the package.  Each
subcommand binds the names it calls from the layers in ``_LAYERS`` when it
starts, by the package's one lazy-loading rule (``amls._lazy``).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, _ascii, _lazy

# layer -> the names this module calls from it
_LAYERS = {
    "bounds": ("CSV_HEADER", "bound_table", "format_csv_rows"),
    "engine": ("ExtensionOracle", "RunConfig", "brute_force_search", "solve"),
    "families": ("build_covering", "build_intersection_family", "family_to_text", "verify_family"),
    "problems": (
        "hs3_exact_oracle", "hs3_system", "parse_graph", "parse_hypergraph",
        "vc_exact_oracle", "vc_matching_oracle", "vc_system",
    ),
}
_bind, __getattr__ = _lazy(globals(), _LAYERS)

def _strict(kind):
    """kind (int or float) on the tokens amls._ascii admits, so that '1_0'
    and non-ASCII digits are usage errors; argparse names it as kind."""
    parse = lambda token: kind(_ascii(token))
    parse.__name__ = kind.__name__
    return parse


_int, _float = _strict(int), _strict(float)


def _float_list(text: str) -> list[float]:
    try:
        values = [_float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty float list: {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="amls", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser(
        "bounds",
        help="exponent bases for (alpha, c) pairs",
        description="Print one row per (alpha, c) pair of the cartesian "
        "product: the local-search base plus the brute/naive/emls benchmarks.",
    )
    p.add_argument("--alpha", type=_float_list, required=True, help="comma-separated ratios, each >= 1")
    p.add_argument("--c", type=_float_list, required=True, help="comma-separated oracle bases, each >= 1")
    p.add_argument("--csv", metavar="PATH", help="write CSV here, '-' for stdout (the default)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("solve", help="approximate search on an instance file")
    p.add_argument("--problem", choices=("vc", "hs3"), required=True)
    p.add_argument("--input", required=True, metavar="FILE", help="instance path, '-' for stdin")
    p.add_argument("--oracle", choices=("exact", "matching"), default="exact")
    p.add_argument("--alpha", type=_float, help="target ratio (>= the oracle's own ratio)")
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--boost", type=_float, default=3.0, help="repetition multiplier")
    p.add_argument("--deterministic", action="store_true", help="family-driven mode")
    p.add_argument("--stop-at-first", action="store_true", help="return at the first qualifying k")
    p.add_argument("--max-repetitions", type=_int, help="cap repetitions per k (degrades the guarantee)")
    p.add_argument("--json", metavar="PATH", help="write the JSON report here, '-' for stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("brute", help="covering-driven search, no oracle")
    p.add_argument("--problem", choices=("vc", "hs3"), required=True)
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--alpha", type=_float, required=True)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_brute)

    p = sub.add_parser("families", help="build a set-intersection family or covering")
    p.add_argument("--kind", choices=("intersection", "covering"), required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--p", type=_int, help="target subset size (intersection)")
    p.add_argument("--q", type=_int, help="member size (intersection)")
    p.add_argument("--r", type=_int, help="required overlap (intersection)")
    p.add_argument("--strong", action="store_true", help="require overlap exactly r")
    p.add_argument("--t", type=_int, help="member size (covering)")
    p.add_argument("--k", type=_int, help="covered subset size (covering)")
    p.add_argument("--out", metavar="PATH", help="write here, '-' for stdout (the default)")
    p.set_defaults(func=_cmd_families)

    return parser


def _cmd_bounds(args) -> int:
    _bind("bounds")
    _write(_bounds_csv(args.alpha, args.c), args.csv or "-")
    return 0


def _bounds_csv(alphas: list[float], cs: list[float]) -> str:
    """The CSV text of bound_table(alphas, cs), header first, built one alpha
    at a time: only one alpha's reports and lines are held beside the text
    so far.  Every row is computed before any is written, so an invalid
    pair writes nothing."""
    blocks = [CSV_HEADER]
    for alpha in alphas:
        blocks.append("\n".join(format_csv_rows(bound_table([alpha], cs))))
    blocks.append("")  # the final newline
    return "\n".join(blocks)


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
        f"mode={rep.mode} k_found={rep.k_found} opt_lower={rep.opt_lower} "
        f"samples={rep.total_samples} "
        f"elapsed={rep.elapsed:.3f}s warnings={len(rep.warnings)}",
        file=sys.stderr,
    )
    for w in rep.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if json_path:
        _write(rep.to_json() + "\n", json_path)


def _cmd_solve(args) -> int:
    # problems, the largest module, compiles first, then engine, which it
    # imports, and each before the stdlib they load: a lower peak RSS
    _bind("problems", "engine")
    parsed, inst = _load_instance(args)
    if args.problem == "vc":
        oracle = (vc_matching_oracle if args.oracle == "matching" else vc_exact_oracle)(parsed)
    elif args.oracle == "matching":
        raise ValueError("the matching oracle applies to vc only")
    else:
        oracle = hs3_exact_oracle(parsed)
    if args.alpha is not None:  # the range rule first, then the oracle's own ratio
        ratio = oracle.alpha
        oracle = ExtensionOracle(args.alpha, oracle.c, oracle.success_prob, oracle.extend)
        if args.alpha < ratio:
            raise ValueError(f"--alpha {args.alpha} is below the oracle's ratio {ratio}")
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
    _bind("problems", "engine")  # in this order, as in _cmd_solve
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
    except SystemExit as exc:  # argparse exits 2 on a usage error, amls 1
        return 1 if exc.code else 0
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
