"""Declarative sweep specifications.

A :class:`SweepSpec` declares a grid over scenarios × initial configurations
× strategies × theta functions × dynamics × traffic workloads × seeds (plus
an explicit task list for non-grid shapes), and expands deterministically
into a flat, ordered list of
:class:`SweepTask`\\ s.  Every pluggable part is referenced *by registry
name*, so a spec — and every task derived from it — is a plain bag of
strings/numbers that round-trips through JSON and crosses process boundaries
without pickling any component objects.

Seed streams
------------

Replicated sweeps need per-task seeds that do not depend on how tasks are
scheduled over workers.  Two modes:

* ``seeds=(7, 11, ...)`` — explicit seeds, used verbatim;
* ``replications=N`` — ``N`` seeds derived from ``base_seed`` through
  ``numpy.random.SeedSequence(base_seed).spawn(N)``, one spawned child per
  replication index.

Either way the seed of a task is a pure function of the spec and the task's
position in the expansion, never of worker count or completion order — so a
sweep is byte-identical for any ``workers`` value, including 1.

Applying seed ``s`` to a task sets both the session's master seed
(``SessionConfig.seed``, which drives initial configurations and driver
RNG offsets) and the scenario build seed
(``scenario_overrides["seed"]``, which drives corpus/workload generation),
so replications genuinely resample the world.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.registry import (
    initializer_registry,
    router_registry,
    runner_registry,
    scenario_registry,
    strategy_registry,
    theta_registry,
    workload_registry,
)
from repro.session.config import SessionConfig

__all__ = ["SweepSpec", "SweepTask", "derive_seeds", "DEFAULT_RUNNER"]

#: Runner used when a spec/task does not name one (a plain discovery run).
DEFAULT_RUNNER = "discover"


def derive_seeds(base_seed: int, count: int) -> List[int]:
    """*count* independent integer seeds derived from *base_seed*.

    Uses ``numpy.random.SeedSequence.spawn`` so the streams are
    statistically independent; the i-th seed depends only on
    ``(base_seed, i)``.
    """
    if count < 0:
        raise ConfigurationError(f"seed count must be non-negative, got {count}")
    children = np.random.SeedSequence(base_seed).spawn(count)
    return [int(child.generate_state(1, dtype=np.uint32)[0]) for child in children]


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a session config plus a named runner.

    ``config`` is a :class:`~repro.session.config.SessionConfig` mapping
    (already carrying the task's seed), ``runner`` names a callable in
    :data:`repro.registry.runner_registry` and ``options`` are its plain-dict
    arguments.  Everything is JSON-safe by construction.
    """

    index: int
    config: Dict[str, Any]
    runner: str = DEFAULT_RUNNER
    options: Dict[str, Any] = field(default_factory=dict)
    #: The seed the expansion applied, or ``None`` if the config's own seed rules.
    seed: Optional[int] = None

    def session_config(self) -> SessionConfig:
        """The materialised :class:`SessionConfig` for this task."""
        return SessionConfig.from_dict(self.config)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable mapping that round-trips through :meth:`from_dict`."""
        return {
            "index": self.index,
            "config": dict(self.config),
            "runner": self.runner,
            "options": dict(self.options),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "SweepTask":
        """Rebuild a task from its :meth:`to_dict` form."""
        return cls(
            index=int(mapping["index"]),
            config=dict(mapping.get("config", {})),
            runner=str(mapping.get("runner", DEFAULT_RUNNER)),
            options=dict(mapping.get("options", {})),
            seed=mapping.get("seed"),
        )

    def canonical_key(self) -> Dict[str, Any]:
        """The task's identity material for content addressing.

        A pure function of what the task *runs* — the session config with
        every component reference resolved to its registry-canonical name,
        the fully resolved :class:`~repro.datasets.scenarios.ScenarioConfig`
        (scale preset + overrides + seed material), the canonical runner
        name, the runner options and the applied seed — and never of the
        task's position in a grid (``index``) or of any executor/placement
        detail.  Two tasks with equal canonical keys perform identical work,
        even across differently shaped specs, which is exactly the sharing
        :func:`repro.sweep.store.task_hash` builds on.
        """
        # Imported lazily: repro.sweep.runners registers the built-in runners
        # and importing it at module scope would be cyclic.
        from repro.sweep.runners import resolve_runner

        resolve_runner(self.runner)  # ensure runners are registered; fail fast
        config = self.session_config()
        config_dict = config.to_dict()
        config_dict["scenario"] = scenario_registry.canonical_name(config.scenario)
        config_dict["strategy"] = strategy_registry.canonical_name(config.strategy)
        config_dict["initial"] = initializer_registry.canonical_name(config.initial)
        if config.theta is not None:
            config_dict["theta"] = theta_registry.canonical_name(config.theta)
        if config.router is not None:
            config_dict["router"] = router_registry.canonical_name(config.router)
        return {
            "config": config_dict,
            "scenario_config": asdict(config.experiment_config().scenario),
            "runner": runner_registry.canonical_name(self.runner),
            "options": dict(self.options),
            "seed": self.seed,
        }

    def label(self) -> str:
        """A short human-readable identifier for progress displays."""
        parts = [
            str(self.config.get("scenario", "?")),
            str(self.config.get("initial", "?")),
            str(self.config.get("strategy", "?")),
        ]
        if self.runner != DEFAULT_RUNNER:
            parts.append(self.runner)
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return "/".join(parts)


def _as_tuple(value: Optional[Sequence[Any]]) -> Tuple[Any, ...]:
    if value is None:
        return ()
    if isinstance(value, (str, bytes)):
        raise ConfigurationError(
            f"expected a sequence of names, got the bare string {value!r}"
        )
    return tuple(value)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: grid axes × seeds, plus explicit tasks.

    Grid axes left empty fall back to the :class:`SessionConfig` default for
    that field (one grid point).  ``tasks`` entries are either a bare
    :class:`SessionConfig` mapping or ``{"config": ..., "runner": ...,
    "options": ...}``; they are appended after the grid, in order.
    """

    #: Registered scenario names; empty = the SessionConfig default scenario.
    scenarios: Tuple[str, ...] = ()
    #: Registered initial-configuration kinds; empty = the default.
    initials: Tuple[str, ...] = ()
    #: Registered strategy names; empty = the default.
    strategies: Tuple[str, ...] = ()
    #: Registered theta function names; empty = the scale preset's theta.
    thetas: Tuple[str, ...] = ()
    #: Dynamics axis: drift schedule specs (mappings naming registered drift
    #: models, see :class:`~repro.dynamics.schedule.DynamicsSchedule`), one
    #: grid point each; empty = the SessionConfig default (no drift).  This
    #: is how the paper's Section 4.2 drift grids sweep: e.g. one
    #: ``workload-full`` spec per ``peer_fraction`` value x the seed stream.
    dynamics: Tuple[Any, ...] = ()
    #: Workload axis for traffic runs: registered arrival-generator names
    #: (``"zipf"``) or mappings merged into the task's ``traffic`` config
    #: (``{"workload": "flash-crowd", "workload_options": {...}}``), one grid
    #: point each; empty = the config's ``traffic`` field (or no traffic).
    #: Only meaningful with the ``traffic`` runner, which reads the field.
    workloads: Tuple[Any, ...] = ()
    #: Scale preset applied to every grid task (``quick``/``benchmark``/``paper``).
    scale: Optional[str] = None
    #: Extra :class:`SessionConfig` fields applied to every grid task.
    overrides: Dict[str, Any] = field(default_factory=dict)
    #: Explicit seeds; mutually exclusive with ``replications > 1``.
    seeds: Optional[Tuple[int, ...]] = None
    #: Number of derived-seed replications (used when ``seeds`` is unset).
    replications: int = 1
    #: Master entropy for derived seed streams.
    base_seed: int = 7
    #: Runner applied to every grid task.
    runner: str = DEFAULT_RUNNER
    #: Options passed to the grid tasks' runner.
    runner_options: Dict[str, Any] = field(default_factory=dict)
    #: Explicit (non-grid) tasks, appended after the grid.
    tasks: Tuple[Any, ...] = ()
    #: Retries per failed task before quarantine (0 = a single attempt).
    #: Execution policy, not task identity: content hashes ignore it.
    retries: int = 0
    #: Per-task wall-clock budget in seconds, enforced worker-side
    #: (``None`` = unlimited).  Execution policy, like ``retries``.
    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", _as_tuple(self.scenarios))
        object.__setattr__(self, "initials", _as_tuple(self.initials))
        object.__setattr__(self, "strategies", _as_tuple(self.strategies))
        object.__setattr__(self, "thetas", _as_tuple(self.thetas))
        object.__setattr__(self, "dynamics", _as_tuple(self.dynamics))
        object.__setattr__(self, "workloads", _as_tuple(self.workloads))
        if self.seeds is not None:
            object.__setattr__(self, "seeds", tuple(int(seed) for seed in self.seeds))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if self.replications < 1:
            raise ConfigurationError(
                f"replications must be at least 1, got {self.replications}"
            )
        if self.seeds is not None and self.replications != 1:
            raise ConfigurationError(
                "explicit seeds and replications are mutually exclusive; "
                "give one or the other"
            )
        if self.retries < 0:
            raise ConfigurationError(f"retries must be non-negative, got {self.retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive (or None), got {self.task_timeout}"
            )

    # -- construction / serialisation ---------------------------------------------

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "SweepSpec":
        """Build a spec from a plain mapping (JSON/CLI use).

        Unknown keys raise :class:`~repro.errors.ConfigurationError` listing
        the valid field names.
        """
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown sweep spec keys {unknown}; valid keys: {sorted(known)}"
            )
        values = dict(mapping)
        if "seeds" in values and values["seeds"] is not None:
            values["seeds"] = tuple(int(seed) for seed in values["seeds"])
        for axis in (
            "scenarios",
            "initials",
            "strategies",
            "thetas",
            "dynamics",
            "workloads",
            "tasks",
        ):
            if axis in values and values[axis] is not None:
                values[axis] = tuple(values[axis])
        return cls(**values)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable mapping that round-trips through :meth:`from_dict`."""
        return {
            "scenarios": list(self.scenarios),
            "initials": list(self.initials),
            "strategies": list(self.strategies),
            "thetas": list(self.thetas),
            "dynamics": [dict(spec) for spec in self.dynamics],
            "workloads": [
                dict(entry) if isinstance(entry, Mapping) else entry
                for entry in self.workloads
            ],
            "scale": self.scale,
            "overrides": dict(self.overrides),
            "seeds": list(self.seeds) if self.seeds is not None else None,
            "replications": self.replications,
            "base_seed": self.base_seed,
            "runner": self.runner,
            "runner_options": dict(self.runner_options),
            "tasks": [dict(task) for task in self.tasks],
            "retries": self.retries,
            "task_timeout": self.task_timeout,
        }

    def with_options(self, **overrides: Any) -> "SweepSpec":
        """A copy of this spec with some fields replaced."""
        return replace(self, **overrides)

    # -- expansion -----------------------------------------------------------------

    def seed_stream(self) -> List[Optional[int]]:
        """The per-replication seeds this spec sweeps over.

        ``[None]`` when neither explicit seeds nor replications were asked
        for — the task configs' own seeds then apply unchanged.
        """
        if self.seeds is not None:
            return list(self.seeds)
        if self.replications > 1:
            return list(derive_seeds(self.base_seed, self.replications))
        return [None]

    def _base_config(self) -> Dict[str, Any]:
        """Spec-wide fields (``overrides`` + ``scale``) every task starts from."""
        config: Dict[str, Any] = dict(self.overrides)
        if self.scale is not None:
            config["scale"] = self.scale
        return config

    def _grid_configs(self) -> List[Dict[str, Any]]:
        # Axes left empty pin the SessionConfig default explicitly (unless
        # `overrides` already sets the field) so task labels, JSONL records
        # and summary group keys name the actual component that ran.  The
        # theta axis stays unset: its default depends on the scale preset.
        defaults = SessionConfig()
        axes: List[Tuple[str, Tuple[Any, ...], Optional[str]]] = [
            ("scenario", self.scenarios or (None,), defaults.scenario),
            ("initial", self.initials or (None,), defaults.initial),
            ("strategy", self.strategies or (None,), defaults.strategy),
            ("theta", self.thetas or (None,), None),
            ("dynamics", self.dynamics or (None,), None),
            ("traffic", self.workloads or (None,), None),
        ]
        configs: List[Dict[str, Any]] = []
        for combo in itertools.product(*(values for _field, values, _default in axes)):
            config = self._base_config()
            for (field_name, _values, default), value in zip(axes, combo):
                if field_name == "traffic":
                    if value is not None:
                        # A bare name selects the generator; a mapping merges
                        # over any spec-wide traffic settings from `overrides`.
                        entry = (
                            dict(value) if isinstance(value, Mapping) else {"workload": value}
                        )
                        config["traffic"] = {**dict(config.get("traffic") or {}), **entry}
                elif value is not None:
                    config[field_name] = value
                elif default is not None:
                    config.setdefault(field_name, default)
            configs.append(config)
        return configs

    def _explicit_entries(self) -> List[Tuple[Dict[str, Any], str, Dict[str, Any]]]:
        entries = []
        for position, task in enumerate(self.tasks):
            if not isinstance(task, Mapping):
                raise ConfigurationError(
                    f"tasks[{position}] must be a mapping, got {type(task).__name__}"
                )
            if "config" in task:
                extra = sorted(set(task) - {"config", "runner", "options"})
                if extra:
                    raise ConfigurationError(
                        f"tasks[{position}] has unknown keys {extra}; "
                        "valid keys: ['config', 'options', 'runner']"
                    )
                task_config = dict(task["config"])
                runner = str(task.get("runner", self.runner))
                options = dict(task.get("options", self.runner_options))
            else:
                task_config = dict(task)
                runner = self.runner
                options = dict(self.runner_options)
            # Spec-wide scale/overrides apply to explicit tasks too (the
            # task's own fields win), so {"scale": "quick", "tasks": [...]}
            # doesn't silently run the tasks at paper scale.
            config = {**self._base_config(), **task_config}
            entries.append((config, runner, options))
        return entries

    @staticmethod
    def _apply_seed(config: Dict[str, Any], seed: Optional[int]) -> Dict[str, Any]:
        if seed is None:
            return dict(config)
        seeded = dict(config)
        seeded["seed"] = seed
        scenario_overrides = dict(seeded.get("scenario_overrides") or {})
        scenario_overrides.setdefault("seed", seed)
        seeded["scenario_overrides"] = scenario_overrides
        return seeded

    def expand(self) -> List[SweepTask]:
        """The flat, ordered task list this spec describes.

        Order: every base task (grid in scenario → initial → strategy → theta
        nesting, then explicit tasks) is repeated for each seed of the seed
        stream, seeds innermost — so replications of the same configuration
        are adjacent and the order is independent of worker count.
        """
        base: List[Tuple[Dict[str, Any], str, Dict[str, Any]]] = []
        if not self.tasks or self._grid_requested():
            for config in self._grid_configs():
                base.append((config, self.runner, dict(self.runner_options)))
        base.extend(self._explicit_entries())
        expanded: List[SweepTask] = []
        for config, runner, options in base:
            for seed in self.seed_stream():
                expanded.append(
                    SweepTask(
                        index=len(expanded),
                        config=self._apply_seed(config, seed),
                        runner=runner,
                        options=dict(options),
                        seed=seed,
                    )
                )
        return expanded

    def _grid_requested(self) -> bool:
        return bool(
            self.scenarios
            or self.initials
            or self.strategies
            or self.thetas
            or self.dynamics
            or self.workloads
        )

    # -- validation ----------------------------------------------------------------

    def validate(self) -> List[SweepTask]:
        """Expand and validate every task, failing fast on unknown names.

        Unknown component names raise
        :class:`~repro.errors.UnknownComponentError` with the registry's
        listing of what *is* registered; malformed configs, and router,
        strategy or theta options their component does not take, raise
        :class:`~repro.errors.ConfigurationError`.  Returns the expanded
        task list so callers validate and expand in one pass.
        """
        # Imported here: repro.sweep.runners registers the built-in runners
        # and importing it at module scope would be cyclic.
        from repro.dynamics.schedule import DynamicsSchedule
        from repro.sweep.runners import (
            check_traffic_options,
            resolve_runner,
            run_traffic_workload,
        )

        expanded = self.expand()
        checked: Set[Tuple[Any, ...]] = set()
        for task in expanded:
            config = task.session_config()
            scenario_registry.canonical_name(config.scenario)
            strategy_registry.canonical_name(config.strategy)
            initializer_registry.canonical_name(config.initial)
            if config.theta is not None:
                theta_registry.canonical_name(config.theta)
            if config.router is not None:
                router_registry.canonical_name(config.router)
            if config.scale is not None:
                ExperimentConfig.from_scale(config.scale)
            if config.dynamics is not None:
                DynamicsSchedule.from_dict(config.dynamics).validate()
            if config.traffic is not None and config.traffic.get("workload") is not None:
                import repro.traffic  # noqa: F401  (registers built-in workloads)

                workload_registry.canonical_name(config.traffic["workload"])
            if "dynamics" in task.options and task.options["dynamics"] is not None:
                DynamicsSchedule.from_dict(task.options["dynamics"]).validate()
            if resolve_runner(task.runner) is run_traffic_workload:
                check_traffic_options(task.options)
            _check_component_options(config, checked)
        return expanded


def _check_component_options(config: SessionConfig, checked: Set[Tuple[Any, ...]]) -> None:
    """Bind *config*'s non-empty router, strategy and theta options to their components.

    Nothing is built, and each distinct ``(component, mode, options)`` in
    *checked* is bound once, so a task without options binds nothing.
    """
    bindings = (
        # A router is built around its network, passed first.
        (router_registry, config.router, (None,), config.router_options, None),
        (strategy_registry, config.strategy, (), config.strategy_options, config.strategy_mode),
        (theta_registry, config.theta, (), config.theta_options, None),
    )
    for registry, name, args, options, mode in bindings:
        if not options:
            continue
        if name is None:  # options for the preset's theta function
            name = config.experiment_config().theta_name
        key = (registry.kind, name, mode, repr(options))
        if key in checked:
            continue
        checked.add(key)
        if mode is not None:
            from repro.strategies import strategy_keywords

            options = strategy_keywords(name, mode, options)
        registry.check_options(name, *args, **options)
