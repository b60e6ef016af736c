"""Byte-parity sets: a digest per run, to compare two versions of the code.

Usage (from the repository root, with ``src`` importable)::

    python -m benchmarks.parity quick|paper|restricted|traffic|maintain|serve [--limit N] [--dump FILE]
    python -m benchmarks.parity diff OLD NEW

Each run's line is the sha256 of ``json.dumps(RunResult.to_dict(),
sort_keys=True) + "\\n"``; the last line is the sha256 of those runs'
payloads concatenated in order, so two versions of the code agree on a set
exactly when they print the same lines.  ``--limit N`` keeps the first
``N`` runs of the set.  ``--dump FILE`` also writes every run's
``to_dict()`` to *FILE* as one JSON object keyed by run label.

``diff OLD NEW`` compares two such dumps field by field, for when the
digests differ.  It prints one line per differing field path (list
positions collapse to ``[]``, so ``workload_cost_trace[]`` gathers every
round of every run): how many values differ there, and the largest relative
difference ``|old - new| / max(|old|, |new|)`` among them (``inf`` where a
value is not a number, or a run or field is missing on one side).  Then it
counts the runs that differ, and exits 1 if any do, 0 if none.

The sets:

* ``quick`` (148 runs at seed 7): the three scenarios x {singletons,
  random, fewer, more} x {selfish, altruistic, hybrid} at ``quick`` scale
  under four protocol variants (:data:`QUICK_VARIANTS`), then
  selfish/altruistic x exact/observed ``run_maintenance(4)`` under
  :data:`MAINTENANCE_DRIFT`.
* ``paper`` (48 runs): Table 1 at paper scale, the three scenarios x
  {singletons, random, fewer, more} x {selfish, altruistic} at seeds 7 and
  100010, each on one scenario built per seed and scenario
  (``scenario_overrides={"seed": seed}``).
* ``restricted`` (36 runs): the quick discovery grid with
  ``restrict_to_nonempty=True`` and cluster creation left on.
* ``traffic`` (25 runs): on each quick scenario, one selfish discovery per
  router (broadcast and probe-k with ``k=1``), then ``run_traffic`` of
  :data:`TRAFFIC_EVENTS` events under each of :data:`TRAFFIC_WORKLOADS`;
  then one observed selfish ``run_maintenance(4)`` under
  :data:`MAINTENANCE_DRIFT` followed by ``run_traffic``.  Each run's
  payload is its traffic ``RunResult``.
* ``maintain`` (8 runs): ``run_maintenance(10)`` at paper scale in the
  shape of steadybench's maintain-serve workload (same-category with
  ``uniform_workload``, ``category`` initial, :data:`MAINTENANCE_DRIFT`),
  for selfish and altruistic peers in exact and observed mode, at seeds
  :data:`MAINTAIN_SEEDS`.
* ``serve`` (20 runs): the whole of steadybench's maintain-serve workload,
  bit for bit.  At each of :data:`MAINTAIN_SEEDS`, one observed selfish
  ``run_maintenance(10)`` in the ``maintain`` set's shape serves a
  :data:`SERVE_EVENTS`-event ``zipf`` stream after every period, with
  serve seed ``seed * 1000 + period + 1``.  One run per (seed, period),
  whose payload is that serve's traffic ``RunResult``; the first run of a
  seed runs the seed's whole maintenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.datasets.scenarios import build_scenario
from repro.session import SessionConfig, Simulation

SCENARIOS = ("same-category", "different-category", "uniform")
INITIALS = ("singletons", "random", "fewer", "more")
QUICK_SEED = 7
PAPER_SEEDS = (7, 100010)

#: The protocol settings each quick discovery run is repeated under.
QUICK_VARIANTS: Tuple[Dict[str, Any], ...] = (
    {},
    {"gain_threshold": 0.01, "enforce_locks": False},
    {"restrict_to_nonempty": True, "allow_cluster_creation": False},
    {"creation_cost_increase": 0.05},
)

#: Alternating workload drift: half of cluster 0 switches category on even
#: periods, half of cluster 1 on odd ones.
MAINTENANCE_DRIFT: Dict[str, Any] = {
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

#: The workload generators and routers the traffic set serves under.
TRAFFIC_WORKLOADS = ("uniform", "zipf", "flash-crowd", "replay")
TRAFFIC_ROUTERS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("broadcast", {}),
    ("probe-k", {"k": 1}),
)
TRAFFIC_EVENTS = 5000

#: Seeds and period count of the paper-scale maintenance set.
MAINTAIN_SEEDS = (7, 11)
MAINTAIN_PERIODS = 10
#: Events per serve of the serve set.
SERVE_EVENTS = 100_000

Run = Tuple[str, Callable[[], Any]]


def _discovery(config: SessionConfig, data: Any = None) -> Callable[[], Any]:
    return lambda: Simulation(config, data=data).run()


def _quick_grid(strategies: Tuple[str, ...], **fields: Any) -> Iterator[Run]:
    for scenario in SCENARIOS:
        for initial in INITIALS:
            for strategy in strategies:
                config = SessionConfig(
                    scale="quick",
                    scenario=scenario,
                    initial=initial,
                    strategy=strategy,
                    seed=QUICK_SEED,
                    **fields,
                )
                yield f"{scenario}/{initial}/{strategy}", _discovery(config)


def quick_runs() -> Iterator[Run]:
    strategies = ("selfish", "altruistic", "hybrid")
    for number, variant in enumerate(QUICK_VARIANTS):
        for name, run in _quick_grid(strategies, **variant):
            yield f"v{number}/{name}", run
    for strategy in ("selfish", "altruistic"):
        for mode in ("exact", "observed"):
            config = SessionConfig(
                scale="quick",
                scenario="same-category",
                initial="category",
                strategy=strategy,
                strategy_mode=mode,
                seed=QUICK_SEED,
                dynamics=MAINTENANCE_DRIFT,
            )
            yield (
                f"maintain/{strategy}/{mode}",
                lambda config=config: Simulation(config).run_maintenance(4),
            )


def paper_runs() -> Iterator[Run]:
    for seed in PAPER_SEEDS:
        for scenario in SCENARIOS:
            data = None
            for initial in INITIALS:
                for strategy in ("selfish", "altruistic"):
                    config = SessionConfig(
                        scenario=scenario,
                        initial=initial,
                        strategy=strategy,
                        seed=seed,
                        scenario_overrides={"seed": seed},
                    )
                    if data is None:
                        data = build_scenario(scenario, config.experiment_config().scenario)
                    yield f"{seed}/{scenario}/{initial}/{strategy}", _discovery(config, data)


def restricted_runs() -> Iterator[Run]:
    yield from _quick_grid(
        ("selfish", "altruistic", "hybrid"),
        restrict_to_nonempty=True,
        allow_cluster_creation=True,
    )


def _serve(simulation: Simulation, workload: str) -> Any:
    """Traffic after the session's discovery, which the first call runs."""
    if simulation.last_protocol is None:
        simulation.run()
    return simulation.run_traffic(workload=workload, num_events=TRAFFIC_EVENTS)


def traffic_runs() -> Iterator[Run]:
    for scenario in SCENARIOS:
        for router, options in TRAFFIC_ROUTERS:
            simulation = Simulation(
                SessionConfig(
                    scale="quick",
                    scenario=scenario,
                    seed=QUICK_SEED,
                    router=router,
                    router_options=options,
                )
            )
            for workload in TRAFFIC_WORKLOADS:
                yield (
                    f"{scenario}/{router}/{workload}",
                    lambda simulation=simulation, workload=workload: _serve(simulation, workload),
                )
    config = SessionConfig(
        scale="quick",
        scenario="same-category",
        initial="category",
        strategy="selfish",
        strategy_mode="observed",
        seed=QUICK_SEED,
        dynamics=MAINTENANCE_DRIFT,
    )

    def maintained_traffic() -> Any:
        simulation = Simulation(config)
        simulation.run_maintenance(4)
        return simulation.run_traffic(num_events=TRAFFIC_EVENTS)

    yield "maintain/selfish/observed/traffic", maintained_traffic


def _maintain_config(seed: int, strategy: str, mode: str) -> SessionConfig:
    return SessionConfig(
        scenario="same-category",
        initial="category",
        strategy=strategy,
        strategy_mode=mode,
        seed=seed,
        scenario_overrides={"seed": seed, "uniform_workload": True},
        dynamics=MAINTENANCE_DRIFT,
    )


def maintain_runs() -> Iterator[Run]:
    for seed in MAINTAIN_SEEDS:
        for strategy in ("selfish", "altruistic"):
            for mode in ("exact", "observed"):
                config = _maintain_config(seed, strategy, mode)
                yield (
                    f"{seed}/{strategy}/{mode}",
                    lambda config=config: Simulation(config).run_maintenance(MAINTAIN_PERIODS),
                )


def _served_maintenance(seed: int) -> List[Any]:
    """The traffic ``RunResult`` served after each period of one maintenance."""
    simulation = Simulation(_maintain_config(seed, "selfish", "observed"))
    served: List[Any] = []

    def serve(event: Any) -> None:
        served.append(
            simulation.run_traffic(
                workload="zipf",
                num_events=SERVE_EVENTS,
                seed=seed * 1000 + event.record.period + 1,
            )
        )

    simulation.hooks.on_period_end(serve)
    simulation.run_maintenance(MAINTAIN_PERIODS)
    return served


def serve_runs() -> Iterator[Run]:
    for seed in MAINTAIN_SEEDS:
        served: List[Any] = []

        def result(period: int, seed: int = seed, served: List[Any] = served) -> Any:
            if not served:
                served.extend(_served_maintenance(seed))
            return served[period]

        for period in range(MAINTAIN_PERIODS):
            yield f"{seed}/period-{period}", lambda result=result, period=period: result(period)


SETS: Dict[str, Callable[[], Iterator[Run]]] = {
    "quick": quick_runs,
    "paper": paper_runs,
    "restricted": restricted_runs,
    "traffic": traffic_runs,
    "maintain": maintain_runs,
    "serve": serve_runs,
}


def payload(result: Any) -> bytes:
    """The bytes one run contributes: its sorted-key JSON and a newline."""
    return (json.dumps(result.to_dict(), sort_keys=True) + "\n").encode("utf-8")


def digest_set(
    name: str, *, limit: Optional[int] = None, dump: Optional[str] = None
) -> str:
    """Print one ``<sha256>  <run>`` line per run of set *name*, then the total; return it.

    With *dump*, also write each run's ``to_dict()``, keyed by label, to that file.
    """
    total = hashlib.sha256()
    results: Dict[str, Any] = {}
    for index, (label, run) in enumerate(SETS[name]()):
        if limit is not None and index >= limit:
            break
        result = run()
        data = payload(result)
        total.update(data)
        if dump is not None:
            results[label] = result.to_dict()
        print(f"{hashlib.sha256(data).hexdigest()}  {label}", flush=True)
    digest = total.hexdigest()
    print(f"{digest}  total", flush=True)
    if dump is not None:
        with open(dump, "w", encoding="utf-8") as handle:
            json.dump(results, handle, sort_keys=True)
    return digest


#: Stands in for a run or field that only one dump holds.
_MISSING = object()


def _relative_difference(old: Any, new: Any) -> Optional[float]:
    """``None`` when two leaves serialise alike; else how far apart they are."""
    if json.dumps(old) == json.dumps(new):
        return None
    if not all(
        isinstance(value, (int, float)) and not isinstance(value, bool) for value in (old, new)
    ):
        return math.inf
    if old == new:  # 1 and 1.0, or 0.0 and -0.0
        return 0.0
    difference = abs(old - new) / max(abs(old), abs(new))
    return math.inf if math.isnan(difference) else difference


def diff_fields(
    old: Dict[str, Any], new: Dict[str, Any]
) -> Tuple[Dict[str, List[float]], int]:
    """Compare two dumps: ``({path: [count, largest relative difference]}, runs that differ)``."""
    fields: Dict[str, List[float]] = {}

    def walk(path: str, old_value: Any, new_value: Any) -> bool:
        if isinstance(old_value, dict) and isinstance(new_value, dict):
            children = [
                (
                    f"{path}.{key}" if path else key,
                    old_value.get(key, _MISSING),
                    new_value.get(key, _MISSING),
                )
                for key in sorted(set(old_value) | set(new_value))
            ]
        elif (
            isinstance(old_value, list)
            and isinstance(new_value, list)
            and len(old_value) == len(new_value)
        ):
            children = [(f"{path}[]", a, b) for a, b in zip(old_value, new_value)]
        else:
            if old_value is _MISSING or new_value is _MISSING:
                difference: Optional[float] = math.inf
            else:
                difference = _relative_difference(old_value, new_value)
            if difference is None:
                return False
            entry = fields.setdefault(path or "(run)", [0, 0.0])
            entry[0] += 1
            entry[1] = max(entry[1], difference)
            return True
        # sum, not any: every child is walked, so every differing leaf counts.
        return sum(walk(*child) for child in children) > 0

    runs = sum(
        walk("", old.get(label, _MISSING), new.get(label, _MISSING))
        for label in sorted(set(old) | set(new))
    )
    return fields, runs


def diff_dumps(old_path: str, new_path: str) -> int:
    """Print the field-by-field difference of two ``--dump`` files; 1 if they differ."""
    with open(old_path, encoding="utf-8") as handle:
        old = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    fields, runs = diff_fields(old, new)
    for path in sorted(fields):
        count, largest = fields[path]
        print(f"{path}  {count}  {largest:.3g}")
    print(f"{runs} of {len(set(old) | set(new))} runs differ")
    return 1 if runs else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.parity", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name in sorted(SETS):
        digest = commands.add_parser(name, help=f"print the digests of the {name} set")
        digest.add_argument("--limit", type=int, default=None, help="keep the first N runs")
        digest.add_argument(
            "--dump", metavar="FILE", default=None, help="write each run's to_dict() to FILE"
        )
    diff = commands.add_parser("diff", help="compare two --dump files field by field")
    diff.add_argument("old", metavar="OLD")
    diff.add_argument("new", metavar="NEW")
    arguments = parser.parse_args(argv)
    if arguments.command == "diff":
        return diff_dumps(arguments.old, arguments.new)
    if arguments.limit is not None and arguments.limit < 0:
        parser.error("--limit must be non-negative")
    digest_set(arguments.command, limit=arguments.limit, dump=arguments.dump)
    return 0


if __name__ == "__main__":
    sys.exit(main())
