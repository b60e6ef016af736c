"""Declarative configuration for a simulation session.

:class:`SessionConfig` is the single source of truth from which
:class:`~repro.session.simulation.Simulation` assembles every ingredient of a
run: scenario data, initial configuration, cost model (theta + alpha),
relocation strategy, query router and the reformulation protocol.  All
pluggable parts are referenced *by registry name*, so a config is a plain
bag of strings/numbers that round-trips through JSON (``from_dict`` /
``to_dict``) and can come from a CLI, a config file or code::

    SessionConfig(scenario="same_category", strategy="selfish", scale="quick")

Scale presets: ``scale`` names an :class:`~repro.experiments.config.ExperimentConfig`
preset (``quick``, ``benchmark``, ``paper``).  Fields such as ``alpha``,
``theta`` or ``max_rounds`` default to ``None`` meaning "whatever the preset
says"; setting them overrides the preset.  An existing ``ExperimentConfig``
can be wrapped directly with :meth:`SessionConfig.from_experiment_config`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Integral, Real
from typing import Any, Dict, Iterable, Mapping, Optional

from repro.datasets.scenarios import SCENARIO_SAME_CATEGORY, ScenarioConfig
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig

__all__ = ["SessionConfig", "TRAFFIC_KEYS", "check_traffic_settings"]

#: Protocol switches that must be real booleans ("no" is truthy).
_FLAGS = ("allow_cluster_creation", "restrict_to_nonempty", "enforce_locks")
#: Non-negative finite numbers; the ``True`` ones may be ``None`` (the preset's).
_THRESHOLDS = {
    "alpha": True,
    "gain_threshold": True,
    "maintenance_gain_threshold": True,
    "creation_cost_increase": False,
}
#: Fields restricted to a fixed set of names.
_CHOICES = {
    "strategy_mode": ("exact", "observed"),
}
#: The settings a ``traffic`` mapping, or :meth:`Simulation.run_traffic`'s
#: keyword arguments, may name.
TRAFFIC_KEYS = (
    "batch_size", "horizon", "link", "num_events", "seed", "workload", "workload_options",
)


def check_traffic_settings(settings: Iterable[Any]) -> None:
    """Raise a :class:`ConfigurationError` naming the *settings* not in :data:`TRAFFIC_KEYS`."""
    unknown = set(settings) - set(TRAFFIC_KEYS)
    if unknown:
        raise ConfigurationError(
            f"unknown traffic settings {sorted(unknown, key=repr)}; "
            f"valid keys: {list(TRAFFIC_KEYS)}"
        )


def _reject_unknown_keys(keys: Iterable[Any], cls: type, what: str) -> None:
    """Raise a :class:`ConfigurationError` naming the keys that are not fields of *cls*."""
    known = {spec.name for spec in fields(cls)}
    unknown = set(keys) - known
    if unknown:
        raise ConfigurationError(
            f"unknown {what} keys {sorted(unknown, key=repr)}; valid keys: {sorted(known)}"
        )


def _finite_non_negative(value: Any) -> bool:
    """Whether *value* is a finite real number >= 0; a bool is not a number here."""
    if type(value) is float or type(value) is int:
        return 0 <= value < math.inf
    return (
        not isinstance(value, bool)
        and isinstance(value, Real)
        and math.isfinite(value)
        and value >= 0
    )


def _plainly_valid(config: "SessionConfig") -> bool:
    """The common case of :func:`_check_protocol_settings` in one cheap expression.

    Sweeps build hundreds of configs per grid; only a config this rejects
    (a bad value, or a valid one of an unusual type) pays for the full check.
    """
    return (
        type(config.allow_cluster_creation) is bool
        and type(config.restrict_to_nonempty) is bool
        and type(config.enforce_locks) is bool
        and _finite_non_negative(config.creation_cost_increase)
        and (config.alpha is None or _finite_non_negative(config.alpha))
        and (config.gain_threshold is None or _finite_non_negative(config.gain_threshold))
        and (
            config.maintenance_gain_threshold is None
            or _finite_non_negative(config.maintenance_gain_threshold)
        )
        and (
            config.max_rounds is None
            or (type(config.max_rounds) is int and config.max_rounds >= 1)
        )
        and config.strategy_mode in _CHOICES["strategy_mode"]
    )


def _check_protocol_settings(config: "SessionConfig") -> None:
    """Raise a :class:`ConfigurationError` naming the first bad protocol setting."""

    def invalid(name: str, value: Any, expected: str) -> ConfigurationError:
        return ConfigurationError(f"session config {name}={value!r}: expected {expected}")

    for name in _FLAGS:
        value = getattr(config, name)
        if not isinstance(value, bool):
            raise invalid(name, value, "True or False")
    for name, optional in _THRESHOLDS.items():
        value = getattr(config, name)
        if not (_finite_non_negative(value) or (optional and value is None)):
            raise invalid(name, value, "a finite number >= 0" + (" or None" if optional else ""))
    max_rounds = config.max_rounds
    if max_rounds is not None and (
        isinstance(max_rounds, bool) or not isinstance(max_rounds, Integral) or max_rounds < 1
    ):
        raise invalid("max_rounds", max_rounds, "an integer >= 1 or None")
    for name, choices in _CHOICES.items():
        value = getattr(config, name)
        if value not in choices:
            raise invalid(name, value, "one of " + ", ".join(map(repr, choices)))


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to assemble and run one simulation session."""

    #: Registered scenario name (``same-category``/``same_category``, ...).
    scenario: str = SCENARIO_SAME_CATEGORY
    #: Registered relocation strategy name.
    strategy: str = "selfish"
    #: Scale preset name (``quick``/``benchmark``/``paper``); ``None`` = paper scale.
    scale: Optional[str] = None
    #: Registered initial-configuration kind (``singletons``, ``random``, ...).
    initial: str = "singletons"
    #: Explicit cluster count for the random initial configurations.
    num_clusters: Optional[int] = None
    #: Theta function name; ``None`` = the preset's (``linear`` by default).
    theta: Optional[str] = None
    theta_options: Dict[str, Any] = field(default_factory=dict)
    #: Membership-cost weight; ``None`` = the preset's.
    alpha: Optional[float] = None
    #: Discovery-run gain threshold ε; ``None`` = the preset's.
    gain_threshold: Optional[float] = None
    #: Maintenance gain threshold ε; ``None`` = the preset's (0.001).
    maintenance_gain_threshold: Optional[float] = None
    #: Protocol round budget; ``None`` = the preset's.
    max_rounds: Optional[int] = None
    #: Master seed; ``None`` = the preset's.
    seed: Optional[int] = None
    #: Strategy evaluation mode (``exact`` or ``observed``).
    strategy_mode: str = "exact"
    strategy_options: Dict[str, Any] = field(default_factory=dict)
    #: Registered query router name; ``None`` = broadcast when a router is needed.
    router: Optional[str] = None
    router_options: Dict[str, Any] = field(default_factory=dict)
    #: Declarative exogenous dynamics for maintenance runs: a
    #: :class:`~repro.dynamics.schedule.DynamicsSchedule` spec — one drift
    #: rule (``{"model": name, "options": {...}, "start": ..., "every": ...,
    #: "times": ..., "ramp": ...}``) or ``{"rules": [...]}``.  ``None`` = no
    #: drift.  Like every other field this is a plain bag of strings/numbers,
    #: so drifting sessions sweep and JSON-round-trip like static ones.
    dynamics: Optional[Dict[str, Any]] = None
    #: Declarative query-traffic settings for :meth:`Simulation.run_traffic`:
    #: a plain mapping of its keyword arguments (:data:`TRAFFIC_KEYS`:
    #: ``workload``, ``workload_options``, ``num_events``, ``horizon``,
    #: ``link``, ``batch_size``, ``seed``).  ``None`` = the
    #: traffic defaults.  Kept as a plain bag so traffic runs sweep and
    #: JSON-round-trip like the rest.
    traffic: Optional[Dict[str, Any]] = None
    #: Field overrides applied to the preset's :class:`ScenarioConfig`.
    scenario_overrides: Dict[str, Any] = field(default_factory=dict)
    #: Discovery-run protocol knobs (the paper's Section 4.1 defaults).
    allow_cluster_creation: bool = True
    creation_cost_increase: float = 0.0
    restrict_to_nonempty: bool = False
    enforce_locks: bool = True
    #: Base experiment config taking the role of the scale preset when set.
    base: Optional[ExperimentConfig] = None

    def __post_init__(self) -> None:
        # One check for every way in: the constructor, from_dict, replace,
        # the CLI and sweep specs.
        if not _plainly_valid(self):
            _check_protocol_settings(self)
        if self.router_options and self.router is None:
            raise ConfigurationError(
                f"session config router_options={self.router_options!r} needs a router, "
                "but router=None; name the router these options are for"
            )
        if self.scenario_overrides:
            _reject_unknown_keys(self.scenario_overrides, ScenarioConfig, "scenario_overrides")
        if self.traffic:
            check_traffic_settings(self.traffic)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_experiment_config(
        cls, config: ExperimentConfig, **overrides: Any
    ) -> "SessionConfig":
        """Wrap an existing :class:`ExperimentConfig` (plus session-level *overrides*)."""
        if not isinstance(config, ExperimentConfig):
            raise ConfigurationError(
                f"expected an ExperimentConfig, got {type(config).__name__}"
            )
        return cls(base=config, **overrides)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "SessionConfig":
        """Build a config from a plain mapping (JSON/CLI use).

        Unknown keys raise :class:`~repro.errors.ConfigurationError` listing
        the valid field names, at every level.  A nested ``base`` mapping is
        materialised as an :class:`ExperimentConfig` (with its nested
        ``scenario``).
        """
        _reject_unknown_keys(mapping, cls, "session config")
        values = dict(mapping)
        base = values.get("base")
        if isinstance(base, Mapping):
            _reject_unknown_keys(base, ExperimentConfig, "base")
            base_values = dict(base)
            scenario = base_values.get("scenario")
            if isinstance(scenario, Mapping):
                _reject_unknown_keys(scenario, ScenarioConfig, "base.scenario")
                base_values["scenario"] = ScenarioConfig(**scenario)
            values["base"] = ExperimentConfig(**base_values)
        return cls(**values)

    @classmethod
    def from_any(cls, value: Any = None, **overrides: Any) -> "SessionConfig":
        """Coerce *value* (SessionConfig, mapping, ExperimentConfig or None) to a config."""
        if value is None:
            config = cls()
        elif isinstance(value, cls):
            config = value
        elif isinstance(value, ExperimentConfig):
            config = cls.from_experiment_config(value)
        elif isinstance(value, Mapping):
            config = cls.from_dict(value)
        else:
            raise ConfigurationError(
                "expected a SessionConfig, ExperimentConfig, mapping or None, "
                f"got {type(value).__name__}"
            )
        if overrides:
            config = config.with_options(**overrides)
        return config

    # -- derived views -----------------------------------------------------------

    def with_options(self, **overrides: Any) -> "SessionConfig":
        """A copy of this config with some fields replaced."""
        _reject_unknown_keys(overrides, type(self), "session config")
        return replace(self, **overrides)

    def experiment_config(self) -> ExperimentConfig:
        """The resolved :class:`ExperimentConfig` (preset + explicit overrides)."""
        if self.base is not None:
            config = self.base
        elif self.scale is not None:
            config = ExperimentConfig.from_scale(self.scale)
        else:
            config = ExperimentConfig.paper()
        overrides: Dict[str, Any] = {}
        if self.alpha is not None:
            overrides["alpha"] = self.alpha
        if self.theta is not None:
            overrides["theta_name"] = self.theta
        if self.gain_threshold is not None:
            overrides["gain_threshold"] = self.gain_threshold
        if self.maintenance_gain_threshold is not None:
            overrides["maintenance_gain_threshold"] = self.maintenance_gain_threshold
        if self.max_rounds is not None:
            overrides["max_rounds"] = self.max_rounds
        if self.seed is not None:
            overrides["seed"] = self.seed
        if overrides:
            config = replace(config, **overrides)
        if self.scenario_overrides:
            config = config.with_scenario(**self.scenario_overrides)
        return config

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable mapping that round-trips through :meth:`from_dict`."""
        values = asdict(self)
        if self.base is None:
            values.pop("base")
        if self.traffic is None:
            values.pop("traffic")
        return values
