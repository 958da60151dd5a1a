"""Benchmark for the ``amls`` command line.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout: ops import ``amls`` from ``src/``.
One client drives a closed loop: each op is one ``amls`` invocation in a
fresh interpreter, started only after the previous one exits, so every op
pays the module import and the cold ``lru_cache`` fills as a CLI user
does.  Ops run back to back, in whole rounds of the workload's op mix,
for about S seconds; their outputs are then checked
by ``check.py``, which does not import ``amls``.

The reported times are scaled to a reference host speed: between any two
timed ops the benchmark process runs a fixed pure-Python task
(``calibrate``), and each op's wall time is multiplied by CAL_REF_S over
the mean of the calibration times just before and just after it; the
import timings are scaled by CAL_REF_S over the run's median calibration.
On a shared host CPU speed drifts by tens of percent over minutes; the
scaling cancels most of that drift, while a change to ``amls`` moves the
child's time and not the calibration's.  The raw wall times are printed
as well.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed number of
ops per workload, each once plainly and once through the span recorder in
``spans.py``, and prints the per-layer metrics.  Either way the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Failed ops are nonzero exits, timeouts and failed checks; ``correct`` is
false when any output is invalid or a guarantee that holds unconditionally
is missed (a miss of the randomized mode's probabilistic guarantee only
counts as failed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

SETUP_REPS = 4  # import timings before and again after the timed loop
OP_TIMEOUT_S = 60.0
MIN_OP_S = 0.25  # inputs are made ahead for ops this fast; more on demand
# what the ``amls`` console script runs, plus a last stderr line with the
# process's peak RSS (VmHWM: os.wait4's ru_maxrss would also count the
# spawning benchmark process, whose memory the child briefly shares)
ENTRY = """import sys
from amls.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status:
        sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import amls.cli; "
    "print(time.perf_counter() - t)"
)

# wall time of calibrate() on the reference host, a shared 2-vCPU VM
# running Python 3.11.7 (about; it drifts); scaled times read as seconds
# on that host
CAL_REF_S = 0.048

# printed after BENCHMARK.json's end-to-end metrics but left out of the
# JSON: fail_frac is carried by failed / attempted, bounds ops report no
# samples, and the wall.* figures are the unscaled times
PRINT_ONLY_UNITS = {
    "fail_frac": "ratio",
    "samples_per_op": "count",
    "wall.setup_s": "s",
    "wall.op_s.p50": "s",
    "wall.ops_per_s": "1/s",
    "host.calibrate_s": "s",
}


def calibrate() -> float:
    """Wall time of a fixed pure-Python task: exact rationals, big-integer
    bit operations, sets and dicts, the kinds of work ``amls`` does."""
    start = time.perf_counter()
    total, mask, counts = Fraction(0), 0, {}
    for i in range(1, 4500):
        total += Fraction(i % 97 + 1, i + 3)
        mask ^= (mask << 1 | i) & ((1 << 200) - 1)
        counts[i % 211] = counts.get(i % 211, 0) + bin(mask).count("1")
        counts[-1] = len({j * i % 53 for j in range(12)})
    return time.perf_counter() - start


class HostScale:
    """Scales the wall time of each child to the reference host speed.

    Call ``scale`` right after each timed child: it calibrates again and
    divides by the mean of that calibration and the one before the child.
    ``run_scale`` is the factor for the run as a whole, from the median
    calibration; it serves the import timings, which are too short for a
    calibration pair to scale them without adding its own noise.
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.samples = [self.last]

    def scale(self, wall_s: float) -> float:
        now = calibrate()
        self.samples.append(now)
        scaled = wall_s * CAL_REF_S * 2 / (self.last + now)
        self.last = now
        return scaled

    def run_scale(self) -> float:
        return CAL_REF_S / statistics.median(self.samples)


@dataclass
class OpRun:
    op: object
    wall_s: float
    scaled_s: Optional[float]  # None for traced ops
    returncode: int
    peak_rss_mb: Optional[float]  # None for traced ops
    stdout: str
    stderr: str


class Runner:
    """Spawns children from the checkout root with ``src`` on the path."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        # amls uses no BLAS; the idle OpenBLAS pool's start-up spin made the
        # import time vary up to twofold between runs on a 2-core machine
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")

    def spawn(self, cmd: list[str]) -> tuple[float, int, str, str]:
        """(wall seconds spawn to exit, exit code, stdout, stderr)."""
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            # a blocking wait sees the exit at once; wait(timeout) polls
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return wall, code, stdout, stderr

    def command(self, op, op_id: int, spans_path: Path | None = None) -> list[str]:
        """The op's command line; writes its instance file on first use."""
        argv = list(op.argv)
        if op.text is not None:
            path = self.work / f"instance{op_id}.txt"
            if not path.exists():
                path.write_text(op.text, encoding="utf-8")
            argv += ["--input", str(path)]
        if spans_path is None:
            return [sys.executable, "-c", ENTRY, *argv]
        tracer = str(Path(__file__).with_name("spans.py"))
        return [sys.executable, tracer, str(spans_path), str(op_id), *argv]

    def run(self, op, cmd: list[str], host: Optional[HostScale] = None) -> OpRun:
        wall, code, stdout, stderr = self.spawn(cmd)
        scaled = host.scale(wall) if host else None
        hwm = [line.split()[1] for line in stderr.splitlines() if line.startswith("VmHWM:")]
        return OpRun(op, wall, scaled, code, int(hwm[-1]) / 1024 if hwm else None, stdout, stderr)

    def import_s(self) -> float:
        """Fresh-interpreter ``import amls.cli`` time."""
        _, code, text, err = self.spawn([sys.executable, "-c", IMPORT_TIMER])
        if code != 0:
            raise RuntimeError(f"import amls.cli failed: {err[-500:]}")
        return float(text)


def check_runs(runs: list[OpRun]) -> tuple[bool, int, list]:
    """(correct, failed count, verdicts of the ops that exited 0)."""
    correct, failed, verdicts = True, 0, []
    for run in runs:
        if run.returncode != 0:
            correct = False
            failed += 1
            print(f"op failed: exit {run.returncode}: {run.stderr[-500:]}", file=sys.stderr)
            continue
        verdict = run.op.checker(run.stdout)
        verdicts.append(verdict)
        if not verdict.ok:
            failed += 1
            correct = correct and verdict.valid
            print(f"op failed check: {verdict.message}: {' '.join(run.op.argv[:3])}", file=sys.stderr)
    return correct, failed, verdicts


def end_to_end(workload, seed: int, seconds: float, runner: Runner) -> dict:
    runner.import_s()  # warm-up: writes the bytecode caches
    host = HostScale()
    setup = [runner.import_s() for _ in range(SETUP_REPS)]
    # generate and write inputs before the clock starts; more only if the
    # run outlasts this estimate
    planned = [workload.op(seed, j) for j in range(math.ceil(seconds / MIN_OP_S) + 1)]
    cmds = [runner.command(op, j) for j, op in enumerate(planned)]
    runs: list[OpRun] = []
    # whole rounds of the op mix keep every run's mix the same; a round is
    # started while the run is expected to end nearer to `seconds` with it
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or (time.perf_counter() - start) * (1 + 0.5 / rounds) < seconds:
        for _ in workload.kinds:
            j = len(runs)
            if j == len(planned):
                planned.append(workload.op(seed, j))
                cmds.append(runner.command(planned[j], j))
            runs.append(runner.run(planned[j], cmds[j], host))
        rounds += 1
    setup += [runner.import_s() for _ in range(SETUP_REPS)]
    correct, failed, verdicts = check_runs(runs)
    ratios = [v.ratio for v in verdicts if v.ratio is not None]
    samples = [v.samples for v in verdicts if v.samples is not None]
    metrics = {
        "setup_s": statistics.median(setup) * host.run_scale(),
        "op_s.p50": statistics.median(r.scaled_s for r in runs),
        "ops_per_s": len(runs) / math.fsum(r.scaled_s for r in runs),
        "peak_rss_mb": max((r.peak_rss_mb for r in runs if r.peak_rss_mb is not None), default=None),
        "fail_frac": failed / len(runs),
        "size_ratio.mean": statistics.fmean(ratios) if ratios else None,
        "samples_per_op": statistics.fmean(samples) if samples else None,
        "wall.setup_s": statistics.median(setup),
        "wall.op_s.p50": statistics.median(r.wall_s for r in runs),
        "wall.ops_per_s": len(runs) / math.fsum(r.wall_s for r in runs),
        "host.calibrate_s": statistics.median(host.samples),
    }
    return {"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}


def traced(workload, seed: int, runner: Runner) -> dict:
    from spans import layer_metrics

    runner.import_s()  # warm-up: writes the bytecode caches
    runs, span_files = [], []
    plain_s = traced_s = 0.0
    for j in range(workload.trace_ops):
        op = workload.op(seed, j)
        path = runner.work / f"spans{j}.json"
        plain = runner.run(op, runner.command(op, j))
        spanned = runner.run(op, runner.command(op, j, path))
        runs += [plain, spanned]
        span_files.append(str(path))
        plain_s += plain.wall_s
        traced_s += spanned.wall_s
    correct, failed, _ = check_runs(runs)
    metrics = layer_metrics([f for f in span_files if Path(f).exists()], traced_s, plain_s)
    return {"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}


def load_units(root: Path, trace: bool) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(name: str, seed: int, result: dict, units: dict, trace: bool) -> dict:
    """Print every metric by name with its unit; return the JSON result,
    whose metrics are exactly the ones BENCHMARK.json names."""
    from workloads import LAYERS

    print(f"workload {name} seed {seed}: {result['attempted']} ops, {result['failed']} failed")
    shown = units if trace else {**units, **PRINT_ONLY_UNITS}
    moves = LAYERS[name] if trace else {}
    for metric, unit in shown.items():
        value = result["metrics"].get(metric)
        note = f"  moves {moves[metric]}" if metric in moves else ""
        print(f"  {metric:30s} {'n/a' if value is None else f'{value:.6g}':>12s} {unit}{note}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": result["metrics"][m], "unit": u} for m, u in units.items()},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS  # imports amls: needs src on sys.path

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    trace = bool(args.trace)
    units = load_units(root, trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = root / ".bench_build" / f"perfbench-{os.getpid()}"
    try:
        results = []
        for name in names:
            workload = WORKLOADS[name]
            runner = Runner(root, work / name)
            runner.work.mkdir(parents=True)
            if trace:
                result = traced(workload, args.seed, runner)
            else:
                result = end_to_end(workload, args.seed, args.seconds, runner)
            results.append(report(name, args.seed, result, units, trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}/{m}": v for name, r in zip(names, results) for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    root = Path.cwd()
    if not (root / "src" / "amls" / "__init__.py").is_file():
        print("error: run from the root of an amls checkout (no src/amls here)", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(root / "src"))
    sys.exit(main())
