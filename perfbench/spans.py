"""Traced run of one ``amls`` invocation, and the per-layer aggregation.

Run as a script, it executes one CLI call in this fresh interpreter with a
span around every public entry point of each layer, as ``amls.cli`` and the
engine look those names up:

    python3 perfbench/spans.py SPANS_PATH OP_ID ARGV...

Spans are kept in memory as [name, start, end, parent index, value] and
written once, as JSON, when the call returns.  ``value`` is a per-span
count: None results of ``extend``, true results of ``membership``, members
of a built family, ``total_samples`` of a solve.  The exit code is the
CLI's.

``layer_metrics`` turns the span files of a run into the per-layer metrics,
each a mean per op.  A layer's self time is its spans' durations minus the
durations of their direct children.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

# span name -> layer it is charged to for self time
SELF_LAYERS = {
    "cli.main": "cli",
    "engine.solve": "engine",
    "bounds.table": "bounds",
    "bounds.report": "bounds",
}


class Tracer:
    """In-memory span recorder; wrap() returns a traced version of fn."""

    def __init__(self) -> None:
        self.spans: list = []
        self.current = -1

    def wrap(self, name, fn, measure=None):
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = self.current
            index = len(spans)
            spans.append(None)
            self.current = index
            start = clock()
            value = None
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(result)
                return result
            finally:
                spans[index] = [name, start, clock(), parent, value]
                self.current = parent

        return traced


def install(tracer: Tracer):
    """Wrap the layer entry points in place; returns the traced cli.main."""
    import amls.bounds as bounds
    import amls.cli as cli
    import amls.engine as engine

    def patch(module, attr, name, measure=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), measure))

    def members(family):
        return len(family.members)

    patch(cli, "parse_graph", "cli.parse")
    patch(cli, "parse_hypergraph", "cli.parse")
    patch(cli, "bound_table", "bounds.table")
    patch(bounds, "bound_report", "bounds.report")
    patch(bounds, "amls_bound", "bounds.amls_bound")
    patch(engine, "select_t", "combinatorics.select_t")
    patch(engine, "kappa", "combinatorics.kappa")
    patch(engine, "build_intersection_family", "families.build", members)
    patch(engine, "build_covering", "families.build", members)

    def traced_instance(inst):
        membership = tracer.wrap("problems.membership", inst.membership, int)
        return replace(inst, membership=membership)

    def is_none(result):
        return int(result is None)

    def samples(report):
        return report.total_samples

    solve, brute = cli.solve, cli.brute_force_search

    def solve_traced(inst, oracle, cfg):
        oracle = replace(oracle, extend=tracer.wrap("problems.extend", oracle.extend, is_none))
        return solve(traced_instance(inst), oracle, cfg)

    def brute_traced(inst, *args, **kwargs):
        return brute(traced_instance(inst), *args, **kwargs)

    cli.solve = tracer.wrap("engine.solve", solve_traced, samples)
    cli.brute_force_search = tracer.wrap("engine.solve", brute_traced, samples)
    return tracer.wrap("cli.main", cli.main)


def layer_metrics(span_files: list[str], traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics, each a mean per op over the given span files.

    traced_s / untraced_s are the summed wall times of the same ops run with
    and without the tracer; their ratio gives the tracing overhead.
    """
    count: dict[str, int] = {}
    seconds: dict[str, float] = {}
    values: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _, value), children in zip(spans, child_s):
            count[name] = count.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + (end - start)
            values[name] = values.get(name, 0) + (value or 0)
            layer = SELF_LAYERS.get(name)
            if layer:
                self_s[layer] = self_s.get(layer, 0.0) + (end - start - children)
    ops = len(span_files)

    def per_op(table, key):
        return table.get(key, 0) / ops

    def share(num, den):
        return num / den if den else 0.0

    return {
        "problems.extend.calls": per_op(count, "problems.extend"),
        "problems.extend.s": per_op(seconds, "problems.extend"),
        "problems.extend.none_frac": share(
            values.get("problems.extend", 0), count.get("problems.extend", 0)
        ),
        "problems.membership.calls": per_op(count, "problems.membership"),
        "problems.membership.s": per_op(seconds, "problems.membership"),
        "families.builds": per_op(count, "families.build"),
        "families.build_s": per_op(seconds, "families.build"),
        "families.members": per_op(values, "families.build"),
        "combinatorics.select_t.calls": per_op(count, "combinatorics.select_t"),
        "combinatorics.select_t.s": per_op(seconds, "combinatorics.select_t"),
        "combinatorics.kappa.s": per_op(seconds, "combinatorics.kappa"),
        "engine.samples": per_op(values, "engine.solve"),
        "engine.hit_frac": share(
            values.get("problems.membership", 0), values.get("engine.solve", 0)
        ),
        "engine.self_s": per_op(self_s, "engine"),
        "bounds.rows": per_op(count, "bounds.report"),
        "bounds.amls_bound_s": per_op(seconds, "bounds.amls_bound"),
        "bounds.self_s": per_op(self_s, "bounds"),
        "cli.parse_s": per_op(seconds, "cli.parse"),
        "cli.self_s": per_op(self_s, "cli"),
        "tracing.overhead_frac": share(traced_s, untraced_s) - 1.0,
    }


def main(argv: list[str]) -> int:
    spans_path, op_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    traced_main = install(tracer)
    try:
        return traced_main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
