"""Built-in sweep task runners and runner resolution.

A *runner* is the piece of a :class:`~repro.sweep.spec.SweepTask` that says
what to do with the assembled simulation.  Runners are plain callables
``(simulation, options) -> RunResult`` registered by name in
:data:`repro.registry.runner_registry`, so tasks reference them as strings
and serialize cleanly across process boundaries.

Three generic runners ship here:

* ``discover`` — run the reformulation protocol to quiescence
  (:meth:`Simulation.run`);
* ``maintain`` — run ``options["periods"]`` maintenance periods
  (:meth:`Simulation.run_maintenance`).  Exogenous change is declared
  through the dynamics layer: the task config's ``dynamics`` field (or
  ``options["dynamics"]``, which overrides it) is a
  :class:`~repro.dynamics.schedule.DynamicsSchedule` spec naming registered
  drift models — plain JSON, so drift studies sweep like everything else.
* ``traffic`` — optionally shape the clustering first (``options["after"]``
  = ``"discover"`` or ``"maintain"``), then serve a query workload through
  the event-driven traffic simulator (:meth:`Simulation.run_traffic`);
  latency/hops/bandwidth/recall percentiles become sweep metrics.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from repro.errors import ConfigurationError, UnknownComponentError
from repro.registry import register_runner, runner_registry
from repro.session.config import TRAFFIC_KEYS
from repro.session.result import RunResult
from repro.session.simulation import Simulation

__all__ = [
    "Runner",
    "resolve_runner",
    "run_discovery",
    "run_maintenance_periods",
    "run_traffic_workload",
    "check_traffic_options",
]

#: The runner callable protocol: ``(simulation, options) -> RunResult``.
#: Anything satisfying this signature can be registered with
#: :func:`repro.registry.register_runner` and referenced by name from sweep
#: tasks; it is part of the public typing surface
#: (``from repro.sweep import Runner``).
Runner = Callable[[Simulation, Dict[str, Any]], RunResult]


def resolve_runner(name: str) -> Runner:
    """Look up a runner by registered name.

    Imports :mod:`repro.experiments` first so the experiment-specific
    runners are registered even in a freshly spawned worker process that
    never imported the drivers; unknown names raise the registry's
    :class:`~repro.errors.UnknownComponentError` listing what is available.
    """
    import repro.experiments  # noqa: F401  (registers experiment runners)

    return runner_registry.get(name)


@register_runner("discover", aliases=("discovery",), mutates_scenario=False)
def run_discovery(simulation: Simulation, options: Dict[str, Any]) -> RunResult:
    """Run the reformulation protocol to quiescence (a discovery run).

    Options: ``max_rounds`` (optional) overrides the config's round budget.

    Discovery only mutates the cluster configuration (built per task), never
    the scenario's network, so it shares cached scenario data.
    """
    max_rounds = options.get("max_rounds")
    return simulation.run(max_rounds=max_rounds)


@register_runner("maintain", aliases=("maintenance",), mutates_scenario=True)
def run_maintenance_periods(simulation: Simulation, options: Dict[str, Any]) -> RunResult:
    """Run ``options["periods"]`` periods of the periodic maintenance loop.

    Options: ``periods`` (default 1), ``max_rounds_per_period``, and
    ``dynamics`` — a drift schedule spec overriding the session config's
    ``dynamics`` field for this task.

    Registered as scenario-mutating: the scheduled drift mutates the
    network, so a sweep task builds its own scenario instead of sharing a
    cached one.
    """
    periods = int(options.get("periods", 1))
    max_rounds = options.get("max_rounds_per_period")
    dynamics = options.get("dynamics")
    return simulation.run_maintenance(
        periods, max_rounds_per_period=max_rounds, dynamics=dynamics
    )


#: The ``traffic`` runner's own options, for its shaping phase; every other
#: option it accepts is a :meth:`Simulation.run_traffic` setting
#: (:data:`~repro.session.config.TRAFFIC_KEYS`).
TRAFFIC_PHASE_KEYS = ("after", "periods", "max_rounds_per_period", "dynamics")


def check_traffic_options(options: Mapping[str, Any]) -> str:
    """Check the ``traffic`` runner's *options* and return its shaping phase.

    The phase is ``"none"``, ``"discover"`` or ``"maintain"``: ``after``
    resolves through the runner registry, so every registered alias
    (``"discovery"``, ``"maintenance"``, ...) works.  An unknown key or
    phase raises a :class:`~repro.errors.ConfigurationError` naming it, so
    :meth:`SweepSpec.validate` rejects the spec before any task runs.
    """
    unknown = set(options) - set(TRAFFIC_PHASE_KEYS) - set(TRAFFIC_KEYS)
    if unknown:
        raise ConfigurationError(
            f"unknown traffic runner options {sorted(unknown, key=repr)}; "
            f"valid keys: {list(TRAFFIC_PHASE_KEYS) + list(TRAFFIC_KEYS)}"
        )
    after = str(options.get("after", "none"))
    if after == "none":
        return after
    try:
        phase = runner_registry.canonical_name(after)
    except UnknownComponentError:
        phase = None
    if phase not in ("discover", "maintain"):
        raise ConfigurationError(
            f"unknown traffic runner phase {after!r}; "
            "valid values: ['discover', 'maintain', 'none']"
        )
    return phase


@register_runner("traffic", mutates_scenario=True)
def run_traffic_workload(simulation: Simulation, options: Dict[str, Any]) -> RunResult:
    """Serve a query workload, optionally after shaping the clustering first.

    Options: ``after`` — ``"none"`` (default; traffic hits the initial
    configuration), ``"discover"`` (run the protocol to quiescence first) or
    ``"maintain"`` (run ``periods`` maintenance periods first) — plus
    ``periods`` / ``max_rounds_per_period`` / ``dynamics`` for the shaping
    phase and every :meth:`Simulation.run_traffic` setting (``workload``,
    ``num_events``, ``link``, ...), which override the task config's
    ``traffic`` mapping.

    The returned result is the traffic run's (latency/hops/bandwidth/recall
    scalars in ``extras``, directly usable as sweep metrics) with the shaping
    phase's cost fields grafted on, so one sweep row answers both "what did
    the clustering cost" and "what did it deliver".

    Registered as scenario-mutating: an ``after="maintain"`` phase may drift
    the network, so tasks build their own scenario instead of sharing a
    cached one.
    """
    phase = check_traffic_options(options)
    options = dict(options)
    options.pop("after", None)
    periods = int(options.pop("periods", 1))
    max_rounds = options.pop("max_rounds_per_period", None)
    dynamics = options.pop("dynamics", None)
    prior: Optional[RunResult] = None
    if phase == "discover":
        prior = simulation.run()
    elif phase == "maintain":
        prior = simulation.run_maintenance(
            periods, max_rounds_per_period=max_rounds, dynamics=dynamics
        )
    result = simulation.run_traffic(**options)
    if prior is not None:
        result.merge_prior(prior)
    return result
