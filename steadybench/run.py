"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 steadybench/run.py --workload paper-grid --seed 7 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload twice in the same process, untraced and then traced, and prints
the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it give every metric with its unit, the environment record and any
failure.  A fuller record is written to ``.bench_out/results/``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT))

from steadybench.envinfo import BLAS_THREAD_VARIABLES  # noqa: E402  (loads no numpy)

# Pin every BLAS/OpenMP runtime to one thread before numpy loads, here and
# in every process this one starts.
for _variable in BLAS_THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=int,
        default=10,
        help="accepted for a uniform interface; every run does the same fixed work once",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def run_pass(
    workload: Any,
    seed: int,
    scratch: Path,
    *,
    setup_repeats: int,
    tracer: Any = None,
    verify: bool = False,
) -> Tuple[Any, Any]:
    """Drive *workload* once under a fresh meter; returns ``(run, meter)``."""
    from steadybench.calibration import CalibrationSlice
    from steadybench.meter import Meter
    from steadybench.workloads import Run

    calibration = CalibrationSlice()
    on_point = on_phase = None
    if tracer is not None:
        from steadybench.tracer import HARNESS_SPAN

        def on_point(start: float, end: float) -> None:
            tracer.record(HARNESS_SPAN, start, end)

        def on_phase(phase: Optional[str]) -> None:
            # Record only inside timed phases: warm-ups and output checks stay out.
            tracer.active = phase is not None

        tracer.active = False
    meter = Meter(calibration.run, on_point=on_point, on_phase=on_phase)
    run = Run(seed, meter, scratch, setup_repeats=setup_repeats, verify=verify)
    workload.drive(run)
    meter.switch(None)
    gc.collect()
    return run, meter


def _setup_s(meter: Any) -> float:
    from steadybench.calibration import REFERENCE_SLICE_S
    from steadybench.workloads import SETUP_EXPONENT

    totals = meter.totals(REFERENCE_SLICE_S, SETUP_EXPONENT)
    return statistics.median(
        total.normalised_s for phase, total in totals.items() if phase.startswith("setup.")
    )


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _end_to_end(workload: Any, run: Any, meter: Any) -> Dict[str, Tuple[float, str]]:
    from steadybench.calibration import REFERENCE_SLICE_S

    totals = meter.totals(REFERENCE_SLICE_S, workload.exponent)
    return {
        "setup_s": (_setup_s(meter), "s"),
        "wall_s": (totals["wall"].normalised_s, "s"),
        "ops_per_s": (run.ops / totals[workload.rate_phase].normalised_s, "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }


def _host(meter: Any) -> Dict[str, Tuple[float, str]]:
    from steadybench.calibration import REFERENCE_SLICE_S

    return {
        "host.speed": (REFERENCE_SLICE_S / meter.median_point(), "x"),
        "host.raw_wall_s": (sum(seconds for phase, seconds in meter.segments if phase == "wall"), "s"),
        "host.calib_share": (meter.calibration_s / meter.elapsed(), "share"),
    }


#: Time metrics taken from the tracer's self times.
_TIMES = (
    "datasets.build_s",
    "core.recall_build_s",
    "game.kernel_build_s",
    "game.score_s",
    "game.move_s",
    "game.cost_s",
    "strategies.propose_s",
    "protocol.round_s",
    "overlay.observe_s",
    "dynamics.drift_s",
    "traffic.serve_s",
    "session.self_s",
    "sweep.coord_s",
    "sweep.store_get_s",
    "sweep.hash_s",
    "sweep.shm_publish_s",
)

#: Count metrics taken from the tracer's counts.
_COUNTS = (
    "datasets.builds",
    "core.recall_builds",
    "game.kernel_builds",
    "game.score_calls",
    "game.move_calls",
    "strategies.propose_calls",
    "protocol.rounds",
    "protocol.requests",
    "protocol.granted",
    "overlay.observe_calls",
    "overlay.observed_queries",
    "dynamics.drifts",
    "traffic.queries",
    "traffic.batches",
    "traffic.messages",
    "sweep.store_gets",
    "sweep.hashes",
)

#: Wrapper counts that must equal the program's own event counts.
_EVENT_PAIRS = (
    ("protocol.rounds", "round_end", "repro.protocol.rounds:execute_round"),
    ("protocol.granted", "relocation_granted", "repro.protocol.rounds:execute_round"),
    ("dynamics.drifts", "drift_applied", "repro.dynamics.schedule:DynamicsSchedule.apply_period"),
)


def _per_layer(
    workload: Any, plain: Tuple[Any, Any], traced: Tuple[Any, Any], tracer: Any
) -> Dict[str, Tuple[float, str]]:
    from steadybench.calibration import REFERENCE_SLICE_S
    from steadybench.tracer import HARNESS_SPAN
    from steadybench.workloads import SWEEP_WORKERS

    (_, plain_meter), (run, meter) = plain, traced
    self_s = tracer.self_time_by_metric()
    metrics: Dict[str, Tuple[float, str]] = {name: (self_s.get(name, 0.0), "s") for name in _TIMES}
    metrics.update({name: (float(tracer.counts.get(name, 0)), "count") for name in _COUNTS})
    requests = tracer.counts.get("protocol.requests", 0)
    metrics["protocol.grant_ratio"] = (
        tracer.counts.get("protocol.granted", 0) / requests if requests else 0.0,
        "ratio",
    )
    metrics["overlay.messages"] = (float(run.extra.get("overlay.messages", 0.0)), "count")
    totals = meter.totals(REFERENCE_SLICE_S, workload.exponent)
    wall_raw = totals["wall"].raw_s
    busy = float(run.extra.get("sweep.task_busy_s", 0.0))
    metrics.update(
        {
            "sweep.store_puts": (float(run.extra.get("sweep.store_puts", 0.0)), "count"),
            "sweep.task_busy_s": (busy, "s"),
            "sweep.task_wait_s": (float(run.extra.get("sweep.task_wait_s", 0.0)), "s"),
            "sweep.worker_util": (busy / (SWEEP_WORKERS * wall_raw) if busy else 0.0, "share"),
            "sweep.executed": (float(run.extra.get("sweep.executed", 0.0)), "count"),
            "sweep.loaded": (float(run.extra.get("sweep.loaded", 0.0)), "count"),
            "sweep.failed": (float(run.events.get("task_failed", 0)), "count"),
            "sweep.retried": (float(run.events.get("task_retried", 0)), "count"),
        }
    )
    metrics.update(_host(plain_meter))
    traced_raw = sum(total.raw_s for total in totals.values())
    attributed = sum(seconds for name, seconds in self_s.items() if name != HARNESS_SPAN)
    plain_wall = plain_meter.totals(REFERENCE_SLICE_S, workload.exponent)["wall"].normalised_s
    metrics["trace.overhead"] = (totals["wall"].normalised_s / plain_wall, "x")
    metrics["trace.unattributed_s"] = (max(0.0, traced_raw - attributed), "s")
    metrics["trace.unattributed_share"] = (max(0.0, traced_raw - attributed) / traced_raw, "share")
    return metrics


def _event_checks(run: Any, tracer: Any) -> None:
    """Wrapper counts must equal event counts wherever the program offers both."""
    for count, event, target in _EVENT_PAIRS:
        if target in tracer.missing:
            continue
        wrapped, emitted = tracer.counts.get(count, 0), run.events.get(event, 0)
        run.check(f"events:{count}", wrapped == emitted, f"{wrapped} wrapped calls vs {emitted} {event} events")
    executed = int(run.extra.get("sweep.executed", 0))
    finished = run.events.get("task_finished", 0)
    run.check("events:sweep.executed", executed == finished, f"{executed} executed vs {finished} task_finished")


def use_checkout() -> bool:
    """Put the checkout's ``src/`` on the import path; ``False`` if it has no program."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv: Optional[List[str]] = None) -> int:
    from steadybench.processes import stop_children_at_exit

    # Registered before the program loads, so it runs after the program's
    # own exit handlers: no pool worker or resource tracker outlives the run.
    stop_children_at_exit()
    args = _parse(argv)
    if not use_checkout():
        return _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    from steadybench import envinfo, references
    from steadybench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; known: {', '.join(sorted(WORKLOADS))}")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT / "tmp"))
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        plain = run_pass(workload, args.seed, scratch, setup_repeats=workload.setup_repeats)
        run = plain[0]
        if args.trace:
            from steadybench.tracer import Tracer, install_layer_wrappers

            tracer = Tracer()
            install_layer_wrappers(tracer)
            try:
                traced = run_pass(workload, args.seed, scratch, setup_repeats=1, tracer=tracer)
            finally:
                tracer.close()
            _event_checks(traced[0], tracer)
            for problem in references.compare(run.outputs, traced[0].outputs):
                run.check("traced-outputs", False, problem)
            run.failures.extend(traced[0].failures)
            run.attempted += traced[0].attempted
            metrics = _per_layer(workload, plain, traced, tracer)
            missing = list(tracer.missing)
        else:
            metrics = _end_to_end(workload, *plain)
            missing = []
        environment = envinfo.record(ROOT, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    expected = references.load(args.seed, workload.name)
    compared = 0
    if expected is not None:
        problems = references.compare(expected, run.outputs)
        compared = len(set(expected) | set(run.outputs))
        run.failures.extend(f"reference {problem}" for problem in problems)
    attempted = run.attempted + (compared or len(run.outputs))
    failed = len(run.failures)
    environment["host_speed"] = round(_host(plain[1])["host.speed"][0], 4)
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "references": str(references.path_for(args.seed).relative_to(ROOT)) if expected else None,
        "missing_targets": missing,
        "failures": run.failures,
        "metrics": reported,
        "outputs": run.outputs,
        "timeline": {"points": plain[1].points, "segments": plain[1].segments},
        "elapsed_s": plain[1].elapsed(),
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result_path = OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    print(f"{'attempted':28s} {attempted:16d} operations")
    print(f"{'failed':28s} {failed:16d} operations")
    print("env " + json.dumps(environment, sort_keys=True))
    for target in missing:
        print(f"not traced (gone from the program): {target}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
