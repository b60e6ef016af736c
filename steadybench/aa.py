"""A/A report: the same code measured repeatedly, to show each workload is steady.

Runs every selected workload ``--runs`` times, each run in a fresh process
and with its own seed (``--first-seed``, ``--first-seed + 1``, ...),
alternating workloads so that slow host phases hit all of them alike.  For
every metric it prints the median, the quartiles and IQR/median (quartiles
as ``statistics.quantiles(values, n=4)`` gives them), and the gap between
the medians of the first and the second half of the runs.

    python3 steadybench/aa.py --runs 10
    python3 steadybench/aa.py --runs 5 --workloads paper-grid,sweep-store --trace 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-grid", "large-population", "maintain-serve", "sweep-store")


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and IQR/median of *values* (at least two)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median if median else 0.0,
    }


def half_gap(values: Sequence[float]) -> float:
    """Relative gap between the medians of the first and second half of *values*."""
    half = len(values) // 2
    first, second = statistics.median(values[:half]), statistics.median(values[half:])
    return (second - first) / first if first else 0.0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    """One fresh-process run; returns its parsed last line plus the elapsed seconds."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(ROOT / "steadybench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    elapsed = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}: {completed.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run's result to this file")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    workloads = [name for name in args.workloads.split(",") if name]
    results: Dict[str, List[Dict[str, object]]] = {name: [] for name in workloads}
    for index in range(args.runs):
        order = workloads if index % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result = run_once(workload, args.first_seed + index, args.seconds, args.trace)
            results[workload].append(result)
            print(
                f"run {index + 1}/{args.runs} {workload}: {result['elapsed_s']:.1f} s, "
                f"failed {result['failed']}/{result['attempted']}",
                file=sys.stderr,
                flush=True,
            )
    for workload in workloads:
        runs = results[workload]
        failed = sum(int(run["failed"]) for run in runs)
        attempted = sum(int(run["attempted"]) for run in runs)
        elapsed = [float(run["elapsed_s"]) for run in runs]
        print(f"\n{workload}: {len(runs)} runs, {failed} of {attempted} operations failed, "
              f"{statistics.median(elapsed):.1f} s per run")
        print(f"  {'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} {'halves':>8s}")
        for name, first in runs[0]["metrics"].items():
            values = [float(run["metrics"][name]["value"]) for run in runs]
            stats = spread(values)
            print(
                f"  {name:28s} {stats['median']:14.6g} {stats['q1']:14.6g} {stats['q3']:14.6g} "
                f"{stats['iqr_over_median']:8.4f} {half_gap(values):+8.4f} {first['unit']}"
            )
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
