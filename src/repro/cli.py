"""Command-line interface for the reproduction.

Usage (after ``pip install -e .`` the ``repro`` entry point is equivalent)::

    repro discover   --scale quick --strategy selfish
    repro maintain   --scale quick --periods 3
    repro maintain   --scale quick --periods 5 \
                     --dynamics '{"model": "churn", "options": {"departures": 2}}'
    repro traffic    --scale quick --after discover --workload zipf \
                     --num-events 200000 --router probe-k --router-options '{"k": 3}'
    repro table1     --scale benchmark --workers 4
    repro figure2    --scale quick
    repro report     --scale benchmark --output report.md
    repro sweep      --scale quick --strategy selfish --strategy altruistic \
                     --replications 8 --workers 4 --output sweep.jsonl
    repro sweep      --spec sweep.json --executor process-pool \
                     --executor-options '{"max_workers": 8}'
    repro sweep      --spec sweep.json --workers 8 --store .sweep-store
    repro sweep      --scale quick --runner maintain --replications 5 \
                     --runner-options '{"periods": 3}' \
                     --dynamics '{"model": "workload-full", "options": {"peer_fraction": 0.2}}' \
                     --dynamics '{"model": "workload-full", "options": {"peer_fraction": 0.6}}'
    repro sweep      --spec sweep.json --store /shared/store \
                     --executor distributed --executor-options '{"workers": 4}'
    repro sweep-worker --store /shared/store
    repro sweep      --status --store /shared/store
    repro sweep      --prune-store --store /shared/store

Every subcommand prints a plain-text table/series; ``report`` runs the whole
suite and renders the markdown that EXPERIMENTS.md is derived from, and
``sweep`` fans a :class:`repro.sweep.SweepSpec` (from a JSON file or flags)
out over a pluggable executor (``--executor serial`` / ``process-pool`` /
``distributed``; ``--workers N`` is shorthand for a process pool),
streaming per-task progress and printing mean/stddev/CI summaries over the
replications.  With ``--store DIR`` every finished task is persisted under
the sha256 of its canonical config and re-runs skip what is already stored —
killed or sharded sweeps resume instead of recomputing (``--no-resume``
forces re-execution).  Failed tasks are retried per ``--retries`` with
deterministic backoff and ``--task-timeout`` bounds each attempt; tasks that
exhaust the budget are quarantined and reported instead of aborting the
sweep.  ``--faults`` (or the ``REPRO_SWEEP_FAULTS`` environment variable)
injects a deterministic :class:`repro.sweep.faults.FaultPlan` for chaos
testing, and ``--verify-store`` audits a result store for corrupt entries
(``--purge-corrupt`` removes them).

The ``distributed`` executor turns the store into a work queue: the
coordinator enqueues the grid and any number of ``repro sweep-worker``
daemons — spawned by the coordinator or started by hand on hosts sharing the
store directory — claim tasks through atomic lease files (see
:mod:`repro.sweep.distributed`).  ``repro sweep --status --store DIR``
reports queue depth, live workers and quarantine counts without touching
anything, and ``--prune-store`` garbage-collects stale queue/lease files
left behind by killed workers.

The ``discover`` and ``maintain`` commands drive the :class:`repro.Simulation`
facade, and the ``--strategy``/``--initial``/``--scenario`` choices are read
from the component registries — a strategy registered through
:func:`repro.registry.register_strategy` before :func:`main` runs is
selectable by name.  Exogenous change is declared with ``--dynamics``, a
:class:`repro.dynamics.DynamicsSchedule` spec in JSON (inline, or ``@file``
to read a file) naming registered drift models; on ``sweep`` the flag is
repeatable and forms a grid axis.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional

from repro.analysis.reporting import format_table
from repro.datasets.scenarios import SCENARIO_SAME_CATEGORY
from repro.events import EventHooks
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.runner import render_report, run_all
from repro.errors import ConfigurationError, ReproError
from repro.experiments.table1 import run_table1
from repro.registry import (
    executor_registry,
    initializer_registry,
    router_registry,
    scenario_registry,
    strategy_registry,
    theta_registry,
    workload_registry,
)
from repro.session import SessionConfig, Simulation
from repro.sweep import ResultStore, SweepSpec, run_sweep
from repro.sweep.executors import executor_from_any
import repro.traffic  # noqa: F401  (registers the built-in traffic workloads)

__all__ = ["main", "build_parser"]

#: The default drift of ``repro maintain``: from period 1 on, a quarter of the
#: perturbed cluster's peers switch their whole workload to another category.
DEFAULT_MAINTAIN_DYNAMICS = {
    "model": "workload-full",
    "options": {"peer_fraction": 0.25},
    "start": 1,
}


def _parse_json_argument(flag: str, value: str) -> Any:
    """Parse a JSON CLI value (inline JSON, or ``@path`` to read a file)."""
    candidate = value.strip()
    try:
        if candidate.startswith("@"):
            with open(candidate[1:], "r", encoding="utf-8") as handle:
                return json.load(handle)
        return json.loads(candidate)
    except (OSError, json.JSONDecodeError) as error:
        raise ConfigurationError(
            f"{flag} expects inline JSON or @file, got {value!r} ({error})"
        ) from None


def _add_scale_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=ExperimentConfig.scales(),
        default="quick",
        help="experiment scale preset (default: quick)",
    )


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process count for the sweep engine (default: 1, results identical)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser.

    Choices for strategies, scenarios and initial configurations come from
    the registries, so plugins registered before this call are selectable.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Recall-based cluster reformulation by selfish peers - reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    discover = subparsers.add_parser(
        "discover", help="form clusters from scratch with a relocation strategy"
    )
    _add_scale_argument(discover)
    discover.add_argument(
        "--strategy", choices=strategy_registry.names(), default="selfish"
    )
    discover.add_argument(
        "--scenario",
        choices=scenario_registry.names(),
        default=SCENARIO_SAME_CATEGORY,
        help="data/query scenario (default: same-category)",
    )
    discover.add_argument(
        "--initial",
        choices=initializer_registry.names(),
        default="singletons",
        help="initial configuration (paper's cases i-iv)",
    )

    maintain = subparsers.add_parser(
        "maintain", help="run periodic maintenance under declarative drift"
    )
    _add_scale_argument(maintain)
    maintain.add_argument("--periods", type=int, default=3)
    maintain.add_argument(
        "--strategy", choices=strategy_registry.names(), default="selfish"
    )
    maintain.add_argument(
        "--dynamics",
        default=None,
        help="drift schedule spec as inline JSON or @file "
        "(default: workload-full on a quarter of the first cluster from period 1)",
    )

    traffic = subparsers.add_parser(
        "traffic",
        help="serve a query workload against the clustered overlay and "
        "report latency/hops/bandwidth/recall distributions",
    )
    _add_scale_argument(traffic)
    traffic.add_argument(
        "--scenario",
        choices=scenario_registry.names(),
        default=SCENARIO_SAME_CATEGORY,
        help="data/query scenario (default: same-category)",
    )
    traffic.add_argument(
        "--initial",
        choices=initializer_registry.names(),
        default="category",
        help="cluster configuration the traffic hits (default: category)",
    )
    traffic.add_argument(
        "--strategy",
        choices=strategy_registry.names(),
        default="selfish",
        help="relocation strategy for --after discover/maintain",
    )
    traffic.add_argument(
        "--after",
        choices=("none", "discover", "maintain"),
        default="none",
        help="shape the clustering first: run the protocol to quiescence "
        "(discover) or --periods maintenance periods (maintain)",
    )
    traffic.add_argument(
        "--periods", type=int, default=1, help="maintenance periods for --after maintain"
    )
    traffic.add_argument(
        "--router",
        choices=router_registry.names(),
        default=None,
        help="query router (default: broadcast)",
    )
    traffic.add_argument(
        "--router-options",
        default=None,
        help='JSON (or @file) router options, e.g. \'{"k": 3}\' for --router probe-k',
    )
    traffic.add_argument(
        "--workload",
        choices=workload_registry.names(),
        default="uniform",
        help="arrival-pattern generator (default: uniform)",
    )
    traffic.add_argument(
        "--workload-options",
        default=None,
        help="JSON (or @file) generator options, "
        'e.g. \'{"exponent": 1.4}\' for --workload zipf',
    )
    traffic.add_argument(
        "--num-events", type=int, default=100_000, help="query events to serve"
    )
    traffic.add_argument(
        "--horizon", type=float, default=1.0, help="simulated horizon in seconds"
    )
    traffic.add_argument(
        "--link",
        default=None,
        help="JSON (or @file) LinkModel fields, "
        'e.g. \'{"hop_latency_ms": 2.0, "query_bytes": 256}\'',
    )
    traffic.add_argument("--seed", type=int, default=None, help="traffic stream seed")

    for name in ("table1", "figure1", "figure2", "figure3", "figure4"):
        sub = subparsers.add_parser(name, help=f"regenerate {name} of the paper")
        _add_scale_argument(sub)
        _add_workers_argument(sub)

    report = subparsers.add_parser("report", help="run the whole suite and render a report")
    _add_scale_argument(report)
    _add_workers_argument(report)
    report.add_argument("--output", default=None, help="write the markdown report to this file")

    sweep = subparsers.add_parser(
        "sweep",
        help="fan a sweep (scenarios x initials x strategies x thetas x seeds) "
        "out over a process pool",
    )
    sweep.add_argument(
        "--spec",
        default=None,
        help="path to a SweepSpec JSON file; replaces the axis/seed/scale/runner "
        "flags (--workers, --output and --no-progress still apply)",
    )
    _add_scale_argument(sweep)
    _add_workers_argument(sweep)
    sweep.add_argument(
        "--scenario",
        action="append",
        choices=scenario_registry.names(),
        default=None,
        help="scenario axis; repeat the flag for several values",
    )
    sweep.add_argument(
        "--initial",
        action="append",
        choices=initializer_registry.names(),
        default=None,
        help="initial-configuration axis; repeatable",
    )
    sweep.add_argument(
        "--strategy",
        action="append",
        choices=strategy_registry.names(),
        default=None,
        help="strategy axis; repeatable",
    )
    sweep.add_argument(
        "--theta",
        action="append",
        choices=theta_registry.names(),
        default=None,
        help="theta function axis; repeatable",
    )
    sweep.add_argument(
        "--seeds",
        default=None,
        help="comma-separated explicit seeds (e.g. 7,11,13); "
        "mutually exclusive with --replications",
    )
    sweep.add_argument(
        "--replications",
        type=int,
        default=None,
        help="number of seeds to derive from --base-seed via SeedSequence.spawn",
    )
    sweep.add_argument(
        "--base-seed", type=int, default=7, help="master entropy for derived seed streams"
    )
    sweep.add_argument(
        "--runner",
        default="discover",
        help="registered sweep runner applied to every task (default: discover)",
    )
    sweep.add_argument(
        "--runner-options",
        default=None,
        help="JSON (or @file) options passed to the runner of every grid task, "
        'e.g. \'{"periods": 5}\' for --runner maintain',
    )
    sweep.add_argument(
        "--dynamics",
        action="append",
        default=None,
        help="drift schedule spec (inline JSON or @file) forming a grid axis; "
        "repeat the flag for several grid points",
    )
    sweep.add_argument(
        "--workload",
        action="append",
        default=None,
        help="traffic workload axis (generator name, or JSON merged into the "
        "task's traffic config); repeatable; use with --runner traffic",
    )
    sweep.add_argument(
        "--metrics",
        default=None,
        help="comma-separated summary metrics (RunResult fields or runner "
        "extras, e.g. latency_p95,bandwidth_p99,recall_mean)",
    )
    sweep.add_argument(
        "--executor",
        choices=executor_registry.names(),
        default=None,
        help="sweep executor backend (overrides --workers); "
        "default: serial, or process-pool when --workers > 1",
    )
    sweep.add_argument(
        "--executor-options",
        default=None,
        help="JSON (or @file) options for --executor, "
        'e.g. \'{"max_workers": 4}\' for process-pool',
    )
    sweep.add_argument(
        "--store",
        default=None,
        help="content-addressed result store directory: finished tasks are "
        "persisted by config hash and already-stored tasks are skipped on "
        "re-runs (resume)",
    )
    sweep.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="with --store: skip tasks whose results are already stored "
        "(--no-resume re-executes everything, still persisting)",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=None,
        help="re-run a failed or timed-out task up to N extra times with "
        "deterministic backoff before quarantining it (default: the spec's "
        "retries field, or 0)",
    )
    sweep.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-attempt wall-clock budget in seconds, enforced worker-side; "
        "a timed-out attempt counts as a failure (default: the spec's "
        "task_timeout field, or unlimited)",
    )
    sweep.add_argument(
        "--faults",
        default=None,
        help="deterministic chaos plan as inline JSON or @file "
        '(e.g. \'{"rules": [{"fault": "worker-kill", "index": 2}]}\'); '
        "overrides the REPRO_SWEEP_FAULTS environment variable",
    )
    sweep.add_argument(
        "--verify-store",
        action="store_true",
        help="with --store: audit every stored entry (readable JSON, hash "
        "matches the filename, result rebuilds) and report corrupt ones "
        "instead of running the sweep",
    )
    sweep.add_argument(
        "--purge-corrupt",
        action="store_true",
        help="with --verify-store: delete the corrupt entries so the next "
        "resume re-executes them",
    )
    sweep.add_argument(
        "--status",
        action="store_true",
        help="with --store: report queue depth (pending/claimed/done), live "
        "workers and quarantined counts instead of running a sweep; "
        "read-only",
    )
    sweep.add_argument(
        "--prune-store",
        action="store_true",
        help="with --store: garbage-collect stale queue/lease/worker files "
        "left behind by killed workers (results and quarantine records are "
        "never touched)",
    )
    sweep.add_argument(
        "--stale-after",
        type=float,
        default=1800.0,
        help="with --prune-store: age in seconds before leases, failure "
        "records, worker files and temp files count as stale "
        "(default: 1800)",
    )
    sweep.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        help="with --status: heartbeat age in seconds before a lease or "
        "worker counts as expired (default: 30)",
    )
    sweep.add_argument(
        "--output", default=None, help="persist the sweep as JSONL to this file"
    )
    sweep.add_argument(
        "--no-progress", action="store_true", help="do not stream per-task progress lines"
    )

    worker = subparsers.add_parser(
        "sweep-worker",
        help="run a distributed-sweep worker daemon against a shared store: "
        "claim queued tasks through atomic leases, execute them under the "
        "coordinator's published retry/timeout policy, and write results "
        "into the store until stopped",
    )
    worker.add_argument(
        "--store",
        required=True,
        help="the shared result-store directory whose queue/ tier to drain",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity for leases and heartbeats "
        "(default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="seconds to sleep between claim attempts when the queue is "
        "empty (default: 0.2)",
    )
    worker.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        help="lease heartbeat budget in seconds; renewals happen at a "
        "fraction of it (default: 30, or the coordinator's published value)",
    )
    worker.add_argument(
        "--drain",
        action="store_true",
        help="exit once the queue is empty instead of polling forever",
    )
    worker.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        help="exit after executing this many tasks (default: unlimited)",
    )

    return parser


def _command_discover(arguments: argparse.Namespace) -> int:
    simulation = Simulation(
        SessionConfig(
            scenario=arguments.scenario,
            strategy=arguments.strategy,
            scale=arguments.scale,
            initial=arguments.initial,
        )
    )
    result = simulation.run()
    rows = [
        ("strategy", arguments.strategy),
        ("initial configuration", arguments.initial),
        ("converged", result.converged),
        ("rounds", result.rounds),
        ("clusters", result.cluster_count),
        ("social cost", round(result.final_social_cost, 3)),
        ("workload cost", round(result.final_workload_cost, 3)),
    ]
    if result.purity is not None:
        rows.append(("purity", round(result.purity, 3)))
    print(format_table(("metric", "value"), rows))
    return 0


def _command_maintain(arguments: argparse.Namespace) -> int:
    if arguments.dynamics is not None:
        dynamics = _parse_json_argument("--dynamics", arguments.dynamics)
    else:
        dynamics = DEFAULT_MAINTAIN_DYNAMICS
    simulation = Simulation(
        SessionConfig(
            scenario=SCENARIO_SAME_CATEGORY,
            strategy=arguments.strategy,
            scale=arguments.scale,
            initial="category",
            dynamics=dynamics,
        )
    )
    result = simulation.run_maintenance(arguments.periods)
    rows = [
        (
            record.period,
            round(record.social_cost_before, 3),
            round(record.social_cost_after, 3),
            record.moves,
            record.rounds,
        )
        for record in result.periods
    ]
    print(format_table(("period", "SCost before", "SCost after", "moves", "rounds"), rows))
    return 0


def _command_traffic(arguments: argparse.Namespace) -> int:
    workload_options = (
        _parse_json_argument("--workload-options", arguments.workload_options)
        if arguments.workload_options is not None
        else None
    )
    router_options = (
        _parse_json_argument("--router-options", arguments.router_options)
        if arguments.router_options is not None
        else {}
    )
    link = (
        _parse_json_argument("--link", arguments.link)
        if arguments.link is not None
        else None
    )
    traffic_settings = {
        "workload": arguments.workload,
        "num_events": arguments.num_events,
        "horizon": arguments.horizon,
    }
    if workload_options is not None:
        traffic_settings["workload_options"] = workload_options
    if link is not None:
        traffic_settings["link"] = link
    if arguments.seed is not None:
        traffic_settings["seed"] = arguments.seed
    simulation = Simulation(
        SessionConfig(
            scenario=arguments.scenario,
            strategy=arguments.strategy,
            scale=arguments.scale,
            initial=arguments.initial,
            router=arguments.router,
            router_options=dict(router_options),
            traffic=traffic_settings,
        )
    )
    if arguments.after == "discover":
        simulation.run()
    elif arguments.after == "maintain":
        simulation.run_maintenance(arguments.periods)
    simulation.run_traffic()
    report = simulation.last_traffic_report
    assert report is not None
    rows = [
        ("workload", report.workload),
        ("router", report.router),
        ("events", report.events),
        ("events / simulated second", round(report.qps, 1)),
        ("clusters reached (messages)", report.query_messages),
        ("result messages", report.result_messages),
        ("result items", report.result_items),
        ("total bandwidth (bytes)", int(report.total_bandwidth_bytes)),
        ("wall seconds", round(report.wall_seconds, 3)),
    ]
    print(format_table(("metric", "value"), rows))
    print()
    print(report.summary_table())
    return 0


def _command_experiment(arguments: argparse.Namespace) -> int:
    config = ExperimentConfig.from_scale(arguments.scale)
    workers = arguments.workers
    runners = {
        "table1": lambda: run_table1(config, workers=workers).to_text(),
        "figure1": lambda: run_figure1(config, workers=workers).to_text(),
        "figure2": lambda: run_figure2(config, workers=workers).to_text(),
        "figure3": lambda: run_figure3(config, workers=workers).to_text(),
        "figure4": lambda: run_figure4(config, workers=workers).to_text(),
    }
    print(runners[arguments.command]())
    return 0


def _command_report(arguments: argparse.Namespace) -> int:
    config = ExperimentConfig.from_scale(arguments.scale)
    report = render_report(run_all(config, workers=arguments.workers), config=config)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"report written to {arguments.output}")
    else:
        print(report)
    return 0


def _sweep_spec_from_arguments(arguments: argparse.Namespace) -> SweepSpec:
    """A :class:`SweepSpec` from ``--spec file.json`` or from the axis flags."""
    if arguments.spec is not None:
        with open(arguments.spec, "r", encoding="utf-8") as handle:
            return SweepSpec.from_dict(json.load(handle))
    seeds = None
    if arguments.seeds:
        try:
            seeds = tuple(int(part) for part in arguments.seeds.split(",") if part.strip())
        except ValueError:
            raise ConfigurationError(
                f"--seeds must be comma-separated integers, got {arguments.seeds!r}"
            ) from None
    dynamics = tuple(
        _parse_json_argument("--dynamics", value) for value in (arguments.dynamics or ())
    )
    workloads = tuple(
        _parse_json_argument("--workload", value) if value.lstrip().startswith(("{", "@")) else value
        for value in (arguments.workload or ())
    )
    runner_options = (
        _parse_json_argument("--runner-options", arguments.runner_options)
        if arguments.runner_options is not None
        else {}
    )
    return SweepSpec(
        scenarios=tuple(arguments.scenario or ()),
        initials=tuple(arguments.initial or ()),
        strategies=tuple(arguments.strategy or ()),
        thetas=tuple(arguments.theta or ()),
        dynamics=dynamics,
        workloads=workloads,
        scale=arguments.scale,
        seeds=seeds,
        replications=arguments.replications if arguments.replications is not None else 1,
        base_seed=arguments.base_seed,
        runner=arguments.runner,
        runner_options=dict(runner_options),
    )


def _sweep_executor_from_arguments(arguments: argparse.Namespace):
    """The executor object for ``--executor`` / ``--executor-options`` / ``--workers``."""
    spec: Any = arguments.executor
    if arguments.executor_options is not None:
        if arguments.executor is None:
            raise ConfigurationError("--executor-options requires --executor")
        options = _parse_json_argument("--executor-options", arguments.executor_options)
        spec = {"name": arguments.executor, "options": options}
    return executor_from_any(spec, arguments.workers)


def _verify_store(arguments: argparse.Namespace, store: Optional[ResultStore]) -> int:
    """``repro sweep --verify-store``: audit the store instead of sweeping."""
    if store is None:
        raise ConfigurationError("--verify-store requires --store")
    hooks = EventHooks()
    if not arguments.no_progress:
        hooks.on_store_corrupt(
            lambda event: print(
                f"corrupt store entry {event.task_hash[:12]}: {event.reason}"
                f"{' (purged)' if event.purged else ''}"
            )
        )
    verification = store.verify(purge=arguments.purge_corrupt, hooks=hooks)
    print(
        f"store {str(store.root)!r}: {verification.checked} entries checked, "
        f"{len(verification.corrupt)} corrupt, {verification.purged} purged"
    )
    return 0 if verification.ok or arguments.purge_corrupt else 1


def _sweep_status(arguments: argparse.Namespace, store: Optional[ResultStore]) -> int:
    """``repro sweep --status``: read-only queue/worker/store snapshot."""
    from repro.sweep.queue import DEFAULT_LEASE_TIMEOUT, TaskQueue

    if store is None:
        raise ConfigurationError("--status requires --store")
    lease_timeout = (
        arguments.lease_timeout
        if arguments.lease_timeout is not None
        else DEFAULT_LEASE_TIMEOUT
    )
    status = TaskQueue.for_store(store, lease_timeout=lease_timeout).status(store)
    rows = [
        ("pending tasks", status.pending),
        ("claimed tasks", status.claimed),
        ("  of which expired leases", status.expired),
        ("unprocessed failure records", status.failure_records),
        ("stored results", status.stored),
        ("quarantined tasks", status.quarantined),
        ("workers registered", len(status.workers)),
        ("workers live", status.live_workers),
        ("stop requested", status.stop_requested),
    ]
    print(format_table(("metric", "value"), rows))
    for worker in status.workers:
        state = "live" if worker.live else "stale"
        print(f"worker {worker.worker_id}: {state} (heartbeat {worker.age:.1f}s ago)")
    return 0


def _prune_store(arguments: argparse.Namespace, store: Optional[ResultStore]) -> int:
    """``repro sweep --prune-store``: garbage-collect queue debris."""
    if store is None:
        raise ConfigurationError("--prune-store requires --store")
    report = store.prune(stale_after=arguments.stale_after)
    print(
        f"store {str(store.root)!r}: pruned {report.removed} files "
        f"({report.queue_files_removed} queue files, "
        f"{report.worker_files_removed} worker files, "
        f"{report.temp_files_removed} temp files)"
    )
    return 0


def _command_sweep(arguments: argparse.Namespace) -> int:
    store = ResultStore.from_any(arguments.store)
    if arguments.verify_store:
        return _verify_store(arguments, store)
    if arguments.status:
        return _sweep_status(arguments, store)
    if arguments.prune_store:
        return _prune_store(arguments, store)
    spec = _sweep_spec_from_arguments(arguments)
    executor = _sweep_executor_from_arguments(arguments)
    faults = (
        _parse_json_argument("--faults", arguments.faults)
        if arguments.faults is not None
        else None
    )
    hooks = EventHooks()
    if not arguments.no_progress:
        hooks.on_task_loaded(
            lambda event: print(
                f"[{event.completed}/{event.total}] {event.task.label()}: "
                f"loaded from store ({event.task_hash[:12]})"
            )
        )
        hooks.on_task_finished(
            lambda event: print(
                f"[{event.completed}/{event.total}] {event.task.label()}: "
                f"SCost={event.result.final_social_cost:.3f} "
                f"rounds={event.result.rounds} ({event.duration:.2f}s)"
            )
        )
        hooks.on_task_failed(
            lambda event: print(
                f"task {event.index} ({event.task.label()}) attempt "
                f"{event.attempt} failed: {event.error.get('type', 'Exception')}: "
                f"{event.error.get('message', '')}"
            )
        )
        hooks.on_task_retried(
            lambda event: print(
                f"task {event.index} ({event.task.label()}): retrying as "
                f"attempt {event.attempt} after {event.delay:.2f}s backoff"
            )
        )
        hooks.on_task_quarantined(
            lambda event: print(
                f"task {event.index} ({event.task.label()}): quarantined after "
                f"{event.failure.attempts} attempt"
                f"{'s' if event.failure.attempts != 1 else ''} "
                f"({event.failure.error_type}: {event.failure.message})"
            )
        )
        hooks.on_sweep_end(
            lambda event: print(
                f"sweep finished: {event.total} tasks "
                f"({event.executed} executed, {event.loaded} loaded"
                + (f", {event.quarantined} quarantined" if event.quarantined else "")
                + f") in {event.duration:.2f}s "
                f"({event.workers} worker{'s' if event.workers != 1 else ''}, "
                f"{event.executor})"
            )
        )
    result = run_sweep(
        spec,
        executor=executor,
        hooks=hooks,
        jsonl_path=arguments.output,
        store=store,
        resume=arguments.resume,
        retries=arguments.retries,
        task_timeout=arguments.task_timeout,
        faults=faults,
    )
    print()
    if arguments.metrics:
        metrics = tuple(
            part.strip() for part in arguments.metrics.split(",") if part.strip()
        )
        print(result.summary_table(metrics=metrics))
    else:
        print(result.summary_table())
    if result.failures:
        print(
            f"\n{len(result.failures)} task"
            f"{'s' if len(result.failures) != 1 else ''} quarantined: "
            + ", ".join(str(failure.index) for failure in result.failures)
        )
    if arguments.output:
        print(f"\nsweep persisted to {arguments.output}")
    if store is not None:
        print(f"store {str(store.root)!r}: {len(store)} stored results")
    return 0


def _command_sweep_worker(arguments: argparse.Namespace) -> int:
    """``repro sweep-worker``: a distributed-sweep worker daemon."""
    from repro.sweep.distributed import run_worker
    from repro.sweep.faults import mark_worker_process
    from repro.sweep.queue import DEFAULT_LEASE_TIMEOUT, TaskQueue

    store = ResultStore(arguments.store)
    lease_timeout = arguments.lease_timeout
    if lease_timeout is None:
        # Fall back to the coordinator's published policy, then the default.
        config = TaskQueue.for_store(store).read_config()
        try:
            lease_timeout = float(config.get("lease_timeout", DEFAULT_LEASE_TIMEOUT))
        except (TypeError, ValueError):
            lease_timeout = DEFAULT_LEASE_TIMEOUT
    # This process exists to run sweep tasks: injected worker-kill faults
    # take the real os._exit path here (in-process callers never do).
    mark_worker_process()
    executed = run_worker(
        store,
        worker_id=arguments.worker_id,
        poll_interval=arguments.poll_interval,
        drain=arguments.drain,
        max_tasks=arguments.max_tasks,
        lease_timeout=lease_timeout,
    )
    print(f"worker exiting: {executed} task{'s' if executed != 1 else ''} executed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    arguments = build_parser().parse_args(argv)
    commands = {
        "discover": _command_discover,
        "maintain": _command_maintain,
        "traffic": _command_traffic,
        "report": _command_report,
        "sweep": _command_sweep,
        "sweep-worker": _command_sweep_worker,
    }
    command = commands.get(arguments.command, _command_experiment)
    try:
        return command(arguments)
    except ReproError as error:
        # e.g. an incompatible scenario/initial combination ("uniform" has no
        # per-peer categories for the "category" initializer): report cleanly
        # instead of dumping a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
