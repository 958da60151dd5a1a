"""Steadiness check: run the benchmark on two sets of ten seeds and compare
each end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload NAME [--out FILE]

The sets use seeds 1-10 and 11-20.  For every metric and set it prints the
median and the spread (q3 - q1) / median.  A metric passes when its spread
is within its bound in both sets and the two medians differ by no more than
the bound, as a share of the first.  Exits 1 if any metric fails.  --out
writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SEED_SETS = (range(1, 11), range(11, 21))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def assess(first: list[dict], second: list[dict], spec: list[dict]) -> list[dict]:
    """One row per end-to-end metric: both sets' summaries and the problems.

    first and second hold the metrics dicts of each set's runs, as run.py
    prints them.
    """
    rows = []
    for metric in spec:
        name, bound = metric["name"], metric["bound"]
        summaries = [summarize([run[name]["value"] for run in runs]) for runs in (first, second)]
        problems = [
            f"set {i} spread {s['spread']:.3f} > bound {bound}"
            for i, s in enumerate(summaries)
            if s["spread"] > bound
        ]
        change = summaries[1]["median"] / summaries[0]["median"] - 1
        if abs(change) > bound:
            problems.append(f"medians differ by {change:+.3f}, beyond bound {bound}")
        rows.append({"metric": name, "bound": bound, "sets": summaries, "problems": problems})
    return rows


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"seed {seed}: incorrect output\n{proc.stderr}")
    print(f"seed {seed}: {json.dumps(result)}", file=sys.stderr, flush=True)
    return result


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except FileNotFoundError:
        return None
    return proc.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    results = [[run_once(spec, args.workload, seed) for seed in seeds] for seeds in SEED_SETS]
    rows = assess(*([r["metrics"] for r in runs] for runs in results), spec["end_to_end"])
    for row in rows:
        cells = "  ".join(
            f"med {s['median']:.4g} iqr/med {s['spread']:.3f}" for s in row["sets"]
        )
        status = "FAIL " + "; ".join(row["problems"]) if row["problems"] else "ok"
        print(f"{args.workload:15s} {row['metric']:16s} bound {row['bound']:<5} {cells}  {status}")
    if args.out:
        record = {
            "workload": args.workload,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "run_seconds": spec["run_seconds"],
            "summary": rows,
            "runs": results,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 1 if any(row["problems"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
