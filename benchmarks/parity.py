"""Byte-parity sets: a digest per run, to compare two versions of the code.

Usage (from the repository root, with ``src`` importable)::

    python -m benchmarks.parity quick|paper|restricted [--limit N]

Each run's line is the sha256 of ``json.dumps(RunResult.to_dict(),
sort_keys=True) + "\\n"``; the last line is the sha256 of those runs'
payloads concatenated in order, so two versions of the code agree on a set
exactly when they print the same lines.  ``--limit N`` keeps the first
``N`` runs of the set.

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
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


SETS: Dict[str, Callable[[], Iterator[Run]]] = {
    "quick": quick_runs,
    "paper": paper_runs,
    "restricted": restricted_runs,
}


def payload(result: Any) -> bytes:
    """The bytes one run contributes: its sorted-key JSON and a newline."""
    return (json.dumps(result.to_dict(), sort_keys=True) + "\n").encode("utf-8")


def digest_set(name: str, *, limit: Optional[int] = None) -> str:
    """Print one ``<sha256>  <run>`` line per run of set *name*, then the total; return it."""
    total = hashlib.sha256()
    for index, (label, run) in enumerate(SETS[name]()):
        if limit is not None and index >= limit:
            break
        data = payload(run())
        total.update(data)
        print(f"{hashlib.sha256(data).hexdigest()}  {label}", flush=True)
    digest = total.hexdigest()
    print(f"{digest}  total", flush=True)
    return digest


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.parity", description=__doc__.splitlines()[0])
    parser.add_argument("set", choices=sorted(SETS))
    parser.add_argument("--limit", type=int, default=None, help="keep the first N runs")
    arguments = parser.parse_args(argv)
    if arguments.limit is not None and arguments.limit < 0:
        parser.error("--limit must be non-negative")
    digest_set(arguments.set, limit=arguments.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
