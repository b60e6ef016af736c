"""Dynamics schedules: mapping maintenance periods to drift-model invocations.

A :class:`DynamicsSchedule` says *which* registered drift models run
*when*, as a plain bag of strings/numbers that round-trips through JSON
(``from_dict`` / ``to_dict``) and therefore travels inside a
:class:`~repro.session.config.SessionConfig` across the sweep engine's
process boundaries.

A schedule is a list of :class:`DriftRule`\\ s.  Each rule names a registered
model plus its options, and describes when it fires:

* **every period** — the default (``start=0, every=1``);
* **one-shot** — ``times=1`` (fire once at ``start``);
* **periodic** — ``every=N`` (fire at ``start``, ``start+N``, ...), optionally
  capped by ``times``;
* **ramp** — ``ramp={"option": name, "values": [...]}`` overrides one option
  per invocation with the next grid value (the paper's varying
  number-of-peers / degree axes as a within-run schedule); the rule stops
  after the grid is exhausted.

JSON shape (a single rule may stand for the whole schedule)::

    {"model": "workload-full", "options": {"peer_fraction": 0.4}, "start": 1}
    {"rules": [{"model": "churn", "options": {"departures": 2}, "every": 2},
               {"model": "content-fraction", "options": {"fraction": 0.3}}]}

Determinism: every (period, rule) invocation draws from its own
``random.Random`` seeded through ``numpy.random.SeedSequence`` from the
session's master seed — a pure function of ``(seed, period, rule index)``,
never of scheduling or worker count, so sweeps over drifting sessions stay
byte-identical for any ``workers`` value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.datasets.scenarios import ScenarioData
from repro.dynamics.models import DriftModel, DriftReport, build_drift_model
from repro.errors import ConfigurationError
from repro.peers.configuration import ClusterConfiguration
from repro.peers.network import PeerNetwork
from repro.registry import drift_registry

__all__ = ["DriftRule", "DynamicsSchedule"]

#: Domain-separation constant so drift streams never collide with the seed
#: streams the sweep engine spawns for scenario builds / initial configurations.
_DRIFT_STREAM = 0xD21F


def _derive_rng(seed: int, period: int, rule_index: int) -> random.Random:
    """The deterministic RNG of one (period, rule) drift invocation."""
    entropy = [int(seed) % (2**32), _DRIFT_STREAM, int(period), int(rule_index)]
    state = np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint32)
    return random.Random(int(state[0]) << 32 | int(state[1]))


@dataclass(frozen=True)
class DriftRule:
    """One scheduled drift: a registered model plus its firing pattern."""

    #: Registered drift-model name.
    model: str
    #: Plain-dict constructor options for the model.
    options: Dict[str, Any] = field(default_factory=dict)
    #: First period the rule fires at.
    start: int = 0
    #: Fire every N periods from ``start`` on.
    every: int = 1
    #: Maximum number of invocations (``1`` = one-shot); ``None`` = unlimited.
    times: Optional[int] = None
    #: Per-invocation override of one option: ``{"option": name, "values": [...]}``.
    ramp: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError(f"start must be non-negative, got {self.start}")
        if self.every < 1:
            raise ConfigurationError(f"every must be at least 1, got {self.every}")
        if self.times is not None and self.times < 1:
            raise ConfigurationError(f"times must be at least 1, got {self.times}")
        if self.ramp is not None:
            unknown = sorted(set(self.ramp) - {"option", "values"})
            if unknown or "option" not in self.ramp or "values" not in self.ramp:
                raise ConfigurationError(
                    "ramp must be a mapping with exactly the keys 'option' and "
                    f"'values', got {sorted(self.ramp)}"
                )
            if not self.ramp["values"]:
                raise ConfigurationError("ramp values must be non-empty")

    # -- firing pattern ------------------------------------------------------

    def invocation_index(self, period: int) -> Optional[int]:
        """The 0-based invocation number at *period*, or ``None`` if silent."""
        if period < self.start:
            return None
        offset = period - self.start
        if offset % self.every:
            return None
        invocation = offset // self.every
        if self.times is not None and invocation >= self.times:
            return None
        if self.ramp is not None and invocation >= len(self.ramp["values"]):
            return None
        return invocation

    def options_for(self, invocation: int) -> Dict[str, Any]:
        """The model options of the *invocation*-th firing (ramp applied)."""
        options = dict(self.options)
        if self.ramp is not None:
            options[str(self.ramp["option"])] = self.ramp["values"][invocation]
        return options

    def build_model(self, invocation: int) -> DriftModel:
        """Instantiate the rule's model for one invocation."""
        return build_drift_model(self.model, **self.options_for(invocation))

    # -- serialisation -------------------------------------------------------

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "DriftRule":
        """Build a rule from a plain mapping; unknown keys fail fast."""
        known = {"model", "options", "start", "every", "times", "ramp"}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown drift rule keys {unknown}; valid keys: {sorted(known)}"
            )
        if "model" not in mapping:
            raise ConfigurationError("a drift rule needs a 'model' name")
        return cls(
            model=str(mapping["model"]),
            options=dict(mapping.get("options") or {}),
            start=int(mapping.get("start", 0)),
            every=int(mapping.get("every", 1)),
            times=(int(mapping["times"]) if mapping.get("times") is not None else None),
            ramp=(dict(mapping["ramp"]) if mapping.get("ramp") is not None else None),
        )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable mapping that round-trips through :meth:`from_dict`."""
        payload: Dict[str, Any] = {"model": self.model, "options": dict(self.options)}
        if self.start:
            payload["start"] = self.start
        if self.every != 1:
            payload["every"] = self.every
        if self.times is not None:
            payload["times"] = self.times
        if self.ramp is not None:
            payload["ramp"] = {
                "option": self.ramp["option"],
                "values": list(self.ramp["values"]),
            }
        return payload


class DynamicsSchedule:
    """An ordered set of :class:`DriftRule`\\ s bound to one session's data and seed.

    Life cycle: build (``from_dict`` / ``from_any`` / constructor) →
    :meth:`bind` the scenario data and master seed →
    :meth:`apply_period` once per maintenance period (the
    :class:`~repro.dynamics.periodic.PeriodicMaintenanceLoop` does this and
    publishes one ``drift_applied`` event per returned report).
    """

    def __init__(self, rules: Sequence[DriftRule] = ()) -> None:
        self.rules: List[DriftRule] = list(rules)
        self._data: Optional[ScenarioData] = None
        self._seed = 0

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "DynamicsSchedule":
        """Build a schedule from its JSON form (one rule, or ``{"rules": [...]}``)."""
        if not isinstance(mapping, Mapping):
            raise ConfigurationError(
                f"a dynamics spec must be a mapping, got {type(mapping).__name__}"
            )
        if "rules" in mapping:
            extra = sorted(set(mapping) - {"rules"})
            if extra:
                raise ConfigurationError(
                    f"a rules-based dynamics spec accepts only 'rules', got extra keys {extra}"
                )
            rules = [DriftRule.from_dict(rule) for rule in mapping["rules"]]
            if not rules:
                raise ConfigurationError("dynamics 'rules' must be non-empty")
            return cls(rules)
        return cls([DriftRule.from_dict(mapping)])

    @classmethod
    def from_any(cls, value: Any) -> "DynamicsSchedule":
        """Coerce *value* (schedule or mapping) to a :class:`DynamicsSchedule`."""
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise ConfigurationError(
            f"expected a DynamicsSchedule or mapping, got {type(value).__name__}"
        )

    # -- binding -------------------------------------------------------------

    def bind(
        self,
        *,
        data: Optional[ScenarioData] = None,
        seed: Optional[int] = None,
    ) -> "DynamicsSchedule":
        """Attach the scenario *data* and master *seed* the rules draw from."""
        if data is not None:
            self._data = data
        if seed is not None:
            self._seed = int(seed)
        return self

    # -- application ---------------------------------------------------------

    def apply_period(
        self,
        network: PeerNetwork,
        configuration: ClusterConfiguration,
        period: int,
    ) -> List[DriftReport]:
        """Apply every rule scheduled for *period*; returns their reports."""
        reports: List[DriftReport] = []
        for rule_index, rule in enumerate(self.rules):
            invocation = rule.invocation_index(period)
            if invocation is None:
                continue
            model = rule.build_model(invocation)
            rng = _derive_rng(self._seed, period, rule_index)
            model.prepare(self._data, rng)
            report = model.apply(network, configuration, period, rng)
            if report is not None:
                reports.append(report)
        return reports

    # -- validation / serialisation -----------------------------------------

    def validate(self) -> "DynamicsSchedule":
        """Fail fast on unknown model names or unbuildable first invocations."""
        for rule in self.rules:
            drift_registry.canonical_name(rule.model)
            rule.build_model(0)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """The JSON form (single rule flattened; round-trips through :meth:`from_dict`)."""
        if len(self.rules) == 1:
            return self.rules[0].to_dict()
        return {"rules": [rule.to_dict() for rule in self.rules]}

    def __repr__(self) -> str:
        return f"DynamicsSchedule(rules={[rule.model for rule in self.rules]})"
