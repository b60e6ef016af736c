"""The four workloads, driven only through the program's public API.

Every workload is built from the seed alone (the seed is both the scenario
build seed and the session master seed), does a fixed amount of work, and
records its outputs as named operations so they can be compared with the
committed references.  A workload talks to the harness through
:class:`Run`: phases are switched on its meter, ``round_end`` events tick
the meter, and event counts are kept for the traced run's cross-checks.

=================  ===========================================================
paper-grid         Table 1 at 200 peers, at two seeds: 3 scenarios x 4
                   initial configurations x {selfish, altruistic} through
                   ``Simulation`` on pre-built scenario data.
large-population   One 5,000-peer same-category scenario, ``more`` initial,
                   one selfish and one altruistic session with fixed round
                   budgets.
maintain-serve     Section 4.2: ten observed-mode maintenance periods under
                   an alternating drift schedule, a 100k-query zipf stream
                   served after each period.
sweep-store        Table 1 at ``quick`` scale x 16 seeds = 384 tasks through
                   a 2-worker ``process-pool`` into a fresh store in eight
                   seed shards, then re-run against the finished store.
=================  ===========================================================
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from steadybench.meter import Meter

__all__ = ["WORKLOADS", "Run", "Workload"]

SCENARIOS = ("same-category", "different-category", "uniform")
INITIALS = ("singletons", "random", "fewer", "more")
STRATEGIES = ("selfish", "altruistic")

PAPER_SEED_OFFSET = 100_003
LARGE_PEERS = 5000
LARGE_BUDGETS = (("selfish", 10), ("altruistic", 3))
PERIODS = 10
QUERIES_PER_SERVE = 100_000
SWEEP_SEEDS = 16
SWEEP_SHARDS = 8
SWEEP_WORKERS = 2
RESUME_PASSES = 8

#: The exponent set-up timings are normalised with on every workload: the
#: builds (scenarios, recall matrices, the sweep grid's hashes) are alike
#: and, over 20 A/A runs, 1.0 left their least spread on the two workloads
#: whose timed phases want the farthest-apart exponents.
SETUP_EXPONENT = 1.0

#: Alternating workload drift: half of cluster 0 switches category on even
#: periods, half of cluster 1 on odd ones, so every period invalidates the
#: recall cache and most periods move peers.
ALTERNATING_DRIFT = {
    "rules": [
        {"model": "workload-full", "options": {"peer_fraction": 0.5, "cluster_index": 0}, "every": 2},
        {
            "model": "workload-full",
            "options": {"peer_fraction": 0.5, "cluster_index": 1},
            "start": 1,
            "every": 2,
        },
    ]
}


class Run:
    """The harness side of one workload pass.

    ``outputs`` maps operation names to their recorded outputs;
    ``failures`` lists operations that failed an invariant check while the
    pass ran; ``ops`` counts the work items of the rate metric;
    ``extra`` holds per-layer measurements only the workload can see.
    With ``verify`` the workloads also check their outputs against slow
    independent evaluations (the exact per-query cost model, a serial
    sweep); ``make_references.py`` runs them so before writing references.
    """

    def __init__(
        self,
        seed: int,
        meter: Meter,
        scratch: Path,
        *,
        setup_repeats: int,
        verify: bool = False,
    ) -> None:
        self.seed = int(seed)
        self.meter = meter
        self.scratch = scratch
        self.setup_repeats = int(setup_repeats)
        self.verify = verify
        self.outputs: Dict[str, Dict[str, Any]] = {}
        self.failures: List[str] = []
        self.attempted = 0
        self.ops = 0
        self.events: Counter = Counter()
        self.extra: Counter = Counter()
        self.setups = 0

    def hooks(self) -> Any:
        """A fresh event hub that ticks the meter and counts protocol events."""
        from repro.events import EventHooks

        hooks = EventHooks()
        hooks.on_round_end(self._round_end)
        hooks.on_relocation_granted(self._count("relocation_granted"))
        hooks.on_drift_applied(self._count("drift_applied"))
        return hooks

    def _round_end(self, event: Any) -> None:
        self.events["round_end"] += 1
        self.meter.tick()

    def _count(self, name: str) -> Callable[[Any], None]:
        def count(event: Any) -> None:
            self.events[name] += 1

        return count

    def check(self, operation: str, ok: bool, detail: str = "") -> None:
        """Count *operation* as attempted, and as failed unless *ok*."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"{operation}: {detail}" if detail else operation)

    def timed_setup(self, build: Callable[[], Any]) -> Any:
        """Time one *build* in its own ``setup.<n>`` phase while repeats remain.

        A workload calls this once before its timed calls, for the data they
        use, and again in the gaps between them, so that the repeats sample
        the host across the whole run instead of its first second.  Returns
        the build, or ``None`` once every repeat has been taken.
        """
        if self.setups >= self.setup_repeats:
            return None
        self.meter.switch(f"setup.{self.setups}")
        built = build()
        self.meter.switch(None)
        self.setups += 1
        return built


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named workload: its drive function, set-up repeats, rate phase and exponent.

    ``setup_repeats`` is how many set-up builds an untraced run times; the
    drive function offers one gap for each.  ``exponent`` is how strongly
    the workload's timed phases are scaled by the measured host speed (see
    :mod:`steadybench.meter`): the value between 0 and 2 that left the least
    run-to-run spread over 15 fresh-process A/A runs (see the README).
    """

    name: str
    why: str
    drive: Callable[[Run], None]
    setup_repeats: int
    rate_phase: str
    exponent: float


def _close(a: float, b: float, tolerance: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=tolerance, abs_tol=tolerance)


def _offers(field: str) -> bool:
    """Whether ``SessionConfig`` still has *field* (later versions may drop it)."""
    from repro.session import SessionConfig

    return field in {spec.name for spec in dataclasses.fields(SessionConfig)}


def _session_outputs(result: Any) -> Dict[str, Any]:
    return {
        "rounds": int(result.rounds),
        "moves": int(result.moves),
        "converged": bool(result.converged),
        "clusters": int(result.cluster_count),
        "social_cost": float(result.final_social_cost),
        "workload_cost": float(result.final_workload_cost),
    }


def _exact_model(simulation: Any) -> Any:
    """The per-query reference cost model over the session's current network."""
    return simulation.network.cost_model(
        theta=simulation.theta, alpha=simulation.experiment_config.alpha, use_matrix=False
    )


def _check_costs(run: Run, name: str, model: Any, configuration: Any, social: float, workload: float) -> None:
    want_social = model.social_cost(configuration, normalized=True)
    want_workload = model.workload_cost(configuration, normalized=True)
    ok = _close(want_social, social) and _close(want_workload, workload)
    run.check(name, ok, f"costs {social}/{workload} vs {want_social}/{want_workload}")


def _check_session(run: Run, name: str, simulation: Any, result: Any) -> None:
    """The session's reported costs must match its cost model's own evaluation."""
    social, workload = result.final_social_cost, result.final_workload_cost
    _check_costs(run, name, simulation.cost_model, simulation.configuration, social, workload)
    if run.verify:
        _check_costs(run, f"{name} exact", _exact_model(simulation), simulation.configuration, social, workload)


# -- paper-grid -------------------------------------------------------------------


def _paper_config(seed: int, scenario: str, **fields: Any) -> Any:
    from repro.session import SessionConfig

    return SessionConfig(scenario=scenario, seed=seed, scenario_overrides={"seed": seed}, **fields)


def paper_seeds(seed: int) -> Tuple[int, int]:
    """The two Table 1 seeds of one run.

    How many rounds Table 1 takes depends on the seed (the altruistic
    different-category sessions converge within 3 to 200 rounds); two
    independent grids per run halve that spread's variance.
    """
    return (seed, seed + PAPER_SEED_OFFSET)


def paper_grid(run: Run) -> None:
    """Table 1 at paper scale, twice: 48 discovery sessions on 6 pre-built scenarios."""
    from repro.datasets.scenarios import build_scenario
    from repro.session import Simulation

    def build(seeds: Tuple[int, ...]) -> Dict[Tuple[int, str], Any]:
        built = {}
        for seed in seeds:
            for scenario in SCENARIOS:
                config = _paper_config(seed, scenario)
                data = build_scenario(scenario, config.experiment_config().scenario)
                Simulation(config, data=data).cost_model  # the recall matrices
                built[seed, scenario] = data
        return built

    seeds = paper_seeds(run.seed)
    build(seeds[:1])  # untimed warm-up
    datasets = run.timed_setup(lambda: build(seeds))
    hooks = run.hooks()
    for number, seed in enumerate(seeds):
        if number:
            run.timed_setup(lambda: build(seeds))
        sessions: List[Tuple[str, Any, Any]] = []
        run.meter.switch("wall")
        for scenario in SCENARIOS:
            for initial in INITIALS:
                for strategy in STRATEGIES:
                    config = _paper_config(seed, scenario, strategy=strategy, initial=initial)
                    simulation = Simulation(config, data=datasets[seed, scenario], hooks=hooks)
                    result = simulation.run()
                    sessions.append((f"{seed}/{scenario}/{initial}/{strategy}", simulation, result))
                    run.meter.tick()
        run.meter.switch(None)
        # Checked and dropped grid by grid, so no grid runs on a heap that
        # holds the previous one's sessions.
        for name, simulation, result in sessions:
            run.outputs[name] = _session_outputs(result)
            run.ops += int(result.rounds)
            run.extra["overlay.messages"] += sum(result.message_counts.values())
            _check_session(run, name, simulation, result)
        del sessions
    run.timed_setup(lambda: build(seeds))


# -- large-population -------------------------------------------------------------


def _large_config(seed: int, peers: int, **fields: Any) -> Any:
    from repro.session import SessionConfig

    if _offers("kernel_backend"):
        fields.setdefault("kernel_backend", "labels")
    return SessionConfig(
        scenario="same-category",
        initial="more",
        seed=seed,
        scenario_overrides={"seed": seed, "num_peers": peers},
        **fields,
    )


def large_population(run: Run) -> None:
    """Two capped sessions on one 5,000-peer scenario (the labels side of ``auto``)."""
    from repro.datasets.scenarios import build_scenario
    from repro.session import Simulation

    def build(peers: int) -> Any:
        config = _large_config(run.seed, peers)
        data = build_scenario(config.scenario, config.experiment_config().scenario)
        Simulation(config, data=data).cost_model  # the factored recall
        return data

    build(400)  # untimed warm-up of the same code path at a tenth of the size
    data = run.timed_setup(lambda: build(LARGE_PEERS))
    hooks = run.hooks()
    for number, (strategy, budget) in enumerate(LARGE_BUDGETS):
        if number:
            run.timed_setup(lambda: build(LARGE_PEERS))
        run.meter.switch("wall")
        simulation = Simulation(_large_config(run.seed, LARGE_PEERS, strategy=strategy), data=data, hooks=hooks)
        result = simulation.run(max_rounds=budget)
        run.meter.switch(None)
        _check_large(run, f"same-category/more/{strategy}@{budget}", budget, simulation, result)
        del simulation, result
    run.timed_setup(lambda: build(LARGE_PEERS))


def _check_large(run: Run, name: str, budget: int, simulation: Any, result: Any) -> None:
    run.outputs[name] = _session_outputs(result)
    run.ops += int(result.rounds)
    run.extra["overlay.messages"] += sum(result.message_counts.values())
    # The matrix-path cost model would build dense 5,000 x 5,000 arrays, so
    # every run checks the session's shape; verification samples peers.
    ok = (
        result.rounds <= budget
        and result.cluster_count >= 1
        and math.isfinite(result.final_social_cost)
        and math.isfinite(result.final_workload_cost)
    )
    run.check(name, ok, f"{result.rounds} rounds (budget {budget}), {result.cluster_count} clusters, "
              f"costs {result.final_social_cost}/{result.final_workload_cost}")
    if run.verify:
        exact, model = _exact_model(simulation), simulation.cost_model
        for peer in simulation.network.peer_ids()[:: LARGE_PEERS // 16]:
            want = exact.pcost(peer, simulation.configuration)
            got = model.pcost(peer, simulation.configuration)
            run.check(f"{name} exact {peer}", _close(want, got), f"pcost {got} vs {want}")


# -- maintain-serve ---------------------------------------------------------------


def _traffic_outputs(report: Any) -> Dict[str, Any]:
    return {
        "events": int(report.events),
        "batches": int(report.batches),
        "query_messages": int(report.query_messages),
        "result_messages": int(report.result_messages),
        "result_items": int(report.result_items),
        "bandwidth_bytes": float(report.total_bandwidth_bytes),
    }


def maintain_serve(run: Run) -> None:
    """Ten observed-mode maintenance periods, serving 100k queries after each."""
    from repro.datasets.scenarios import build_scenario
    from repro.session import SessionConfig, Simulation

    config = SessionConfig(
        scenario="same-category",
        strategy="selfish",
        strategy_mode="observed",
        initial="category",
        seed=run.seed,
        scenario_overrides={"seed": run.seed, "uniform_workload": True},
        dynamics=ALTERNATING_DRIFT,
    )

    def build() -> Any:
        return build_scenario(config.scenario, config.experiment_config().scenario)

    build()  # untimed warm-up
    data = run.timed_setup(build)
    hooks = run.hooks()
    simulation = Simulation(config, data=data, hooks=hooks)
    periods: List[Any] = []
    serves: List[Any] = []

    def serve(event: Any) -> None:
        periods.append(event.record)
        if run.verify:
            record = event.record
            _check_costs(run, f"period-{record.period} exact", _exact_model(simulation),
                         simulation.configuration, record.social_cost_after, record.workload_cost_after)
        run.timed_setup(build)
        run.meter.switch("serve")
        simulation.run_traffic(
            workload="zipf",
            num_events=QUERIES_PER_SERVE,
            seed=run.seed * 1000 + len(periods),
        )
        run.meter.switch("wall")
        serves.append(simulation.last_traffic_report)

    hooks.on_period_end(serve)
    run.meter.switch("wall")
    result = simulation.run_maintenance(PERIODS)
    run.meter.switch(None)
    for record, report in zip(periods, serves):
        run.outputs[f"period-{record.period}"] = {
            "rounds": int(record.rounds),
            "moves": int(record.moves),
            "converged": bool(record.converged),
            "social_cost_before": float(record.social_cost_before),
            "social_cost_after": float(record.social_cost_after),
            "workload_cost_after": float(record.workload_cost_after),
        }
        run.outputs[f"serve-{record.period}"] = _traffic_outputs(report)
        run.ops += int(report.events)
        run.check(f"serve-{record.period}", report.events == QUERIES_PER_SERVE,
                  f"served {report.events} of {QUERIES_PER_SERVE} queries")
    run.extra["overlay.messages"] += sum(result.message_counts.values())
    run.check("periods", len(result.periods) == PERIODS == len(serves),
              f"{len(result.periods)} periods, {len(serves)} serves")
    final = simulation.cost_model.social_cost(simulation.configuration, normalized=True)
    run.check("final-cost", _close(final, result.final_social_cost),
              f"reported {result.final_social_cost}, cost model {final}")


# -- sweep-store ------------------------------------------------------------------


def sweep_tasks() -> Tuple[Dict[str, Any], ...]:
    """Table 1's 24 cells at ``quick`` scale as explicit sweep tasks."""
    from repro.session import SessionConfig

    return tuple(
        {"config": SessionConfig(scale="quick", scenario=scenario, initial=initial, strategy=strategy).to_dict()}
        for scenario in SCENARIOS
        for initial in INITIALS
        for strategy in STRATEGIES
    )


def sweep_seeds(seed: int) -> List[int]:
    """The 16 replication seeds derived from the workload seed."""
    from repro.sweep.spec import derive_seeds

    return derive_seeds(seed, SWEEP_SEEDS)


def payload_line(result: Any) -> str:
    """Canonical JSON of a task result, for byte-exact comparisons within a run."""
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def _task_outputs(result: Any) -> Dict[str, Any]:
    """Every field of a task result but its input config: costs, traces, messages."""
    return {key: value for key, value in result.to_dict().items() if key != "config"}


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _exact_digest(results: List[Any]) -> str:
    return _digest([payload_line(result) for result in results])


def sweep_store(run: Run) -> None:
    """384 discover tasks through a 2-worker pool into a fresh store, then resume."""
    from repro.events import EventHooks
    from repro.sweep import ResultStore, SweepSpec, run_sweep
    from repro.sweep.store import task_hash

    try:
        from repro.sweep.cache import clear_scenario_cache
    except ImportError:  # a later program may drop the per-process scenario memo
        pass
    else:
        clear_scenario_cache()  # every pass starts as cold as a fresh process

    tasks = sweep_tasks()
    seeds = sweep_seeds(run.seed)
    executor = {"name": "process-pool", "options": {"max_workers": SWEEP_WORKERS}}

    def build() -> List[Any]:
        expanded = SweepSpec(tasks=tasks, seeds=tuple(seeds)).validate()
        return [task_hash(task) for task in expanded]

    build()  # untimed warm-up
    hashes = run.timed_setup(build)
    store = ResultStore(tempfile.mkdtemp(prefix="store-", dir=run.scratch))

    started: Dict[int, float] = {}
    timing = Counter()
    hooks = EventHooks()

    def on_started(event: Any) -> None:
        started[event.index] = time.perf_counter()

    def on_finished(event: Any) -> None:
        run.events["task_finished"] += 1
        timing["busy"] += event.duration
        timing["wait"] += time.perf_counter() - started.pop(event.index, time.perf_counter()) - event.duration

    hooks.on_task_started(on_started)
    hooks.on_task_finished(on_finished)
    hooks.on_task_failed(lambda event: run.events.update(["task_failed"]))
    hooks.on_task_retried(lambda event: run.events.update(["task_retried"]))

    # Results are digested between the timed segments and then dropped, so
    # the coordinator's heap, which every shard's pool forks, stays small.
    cold: Dict[str, Tuple[Dict[str, Any], str, int]] = {}
    executed = quarantined = 0
    per_shard = SWEEP_SEEDS // SWEEP_SHARDS
    for shard in range(SWEEP_SHARDS):
        if shard:
            run.timed_setup(build)
        spec = SweepSpec(tasks=tasks, seeds=tuple(seeds[shard * per_shard:(shard + 1) * per_shard]))
        run.meter.switch("wall")
        outcome = run_sweep(spec, executor=executor, store=store, hooks=hooks)
        run.meter.switch(None)
        executed += outcome.executed
        quarantined += len(outcome.failures)
        for task, result in outcome.completed_pairs():
            cold[task_hash(task)] = (
                _task_outputs(result),
                payload_line(result),
                sum(result.message_counts.values()),
            )
        del outcome
    persisted = len(store)
    ordered = [cold[hash_hex] for hash_hex in hashes if hash_hex in cold]
    run.check("cold", len(ordered) == len(hashes) == executed and not quarantined,
              f"{executed} executed, {quarantined} quarantined, {len(ordered)} results "
              f"for {len(hashes)} tasks")
    exact = _digest([record[1] for record in ordered])
    full = SweepSpec(tasks=tasks, seeds=tuple(seeds))
    loaded = 0
    # Loads tick the meter, so a pass is calibrated inside as well as at its ends.
    resume_hooks = EventHooks()
    resume_hooks.on_task_loaded(lambda event: run.meter.tick())
    for number in range(RESUME_PASSES):
        run.timed_setup(build)
        run.meter.switch("resume")
        outcome = run_sweep(full, executor=executor, store=store, hooks=resume_hooks)
        run.meter.switch(None)
        run.check(
            f"resume-{number}",
            outcome.loaded == len(hashes) and outcome.executed == 0
            and _exact_digest(outcome.results) == exact,
            f"{outcome.loaded} loaded, {outcome.executed} executed, payload differs from the cold pass",
        )
        loaded += outcome.loaded
        del outcome
    run.ops += loaded
    # Every field of every result goes to the references, compared field by
    # field to 1e-9; the byte-exact digest only compares passes of one run.
    for index, record in enumerate(ordered):
        run.outputs[f"task-{index:03d}"] = record[0]
    if run.verify:
        serial = run_sweep(full, executor="serial").results
        run.check("serial", _exact_digest(serial) == exact, "process-pool payload differs from serial")
    run.extra.update(
        {
            "sweep.task_busy_s": timing["busy"],
            "sweep.task_wait_s": timing["wait"],
            "sweep.executed": float(executed),
            "sweep.loaded": float(loaded),
            "sweep.store_puts": float(persisted),
            "overlay.messages": float(sum(record[2] for record in ordered)),
        }
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-grid",
            "Table 1 at paper scale: protocol bookkeeping and the dense kernel, recall built once per scenario",
            paper_grid,
            setup_repeats=3,
            rate_phase="wall",
            exponent=1.5,
        ),
        Workload(
            "large-population",
            "5,000 peers on the labels kernel: scoring, move application and the altruistic service matrix",
            large_population,
            setup_repeats=3,
            rate_phase="wall",
            exponent=0.5,
        ),
        Workload(
            "maintain-serve",
            "drift, observation and traffic serving: the only workload that rebuilds recall every period",
            maintain_serve,
            setup_repeats=1 + PERIODS,
            rate_phase="serve",
            exponent=1.0,
        ),
        Workload(
            "sweep-store",
            "the sweep engine: 2-worker pool, content-addressed store writes, then a load-only resume",
            sweep_store,
            setup_repeats=SWEEP_SHARDS + RESUME_PASSES,
            rate_phase="resume",
            exponent=1.25,
        ),
    )
}
