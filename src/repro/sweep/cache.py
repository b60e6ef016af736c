"""Per-worker scenario memoisation for the sweep engine.

Sweep tasks that share a ``(scenario, ScenarioConfig)`` pair — every
strategy × initial × theta combination evaluated at the same seed — used to
rebuild identical :class:`~repro.datasets.scenarios.ScenarioData` from
scratch, corpus generation and all.  (Replications are *different* keys by
design: each replication's seed flows into ``ScenarioConfig.seed`` so it
genuinely resamples the world.)  This module keeps one built scenario per
distinct key in the worker process, and the memo shares or builds; it never
copies:

* **non-mutating runners** (``discover`` and anything registered with
  ``mutates_scenario=False``) share the cached instance directly — a
  discovery run only *derives* models from the network, it never changes it;
* **mutating runners** (the maintenance family, and any runner that does not
  declare itself) never see the memo: their
  :class:`~repro.session.simulation.Simulation` builds its own scenario, so
  the cached instance is never perturbed.  A fresh build is cheaper than a
  deep copy of a built scenario.

Because the cached build is deterministic in the key, a cache hit and a
fresh build produce byte-identical task results — so sweeps stay
reproducible for any worker count, which the engine's parity tests assert.

This memo is the only way a sweep reuses a built scenario: the coordinator
of a multi-process sweep builds nothing, and nothing is persisted beyond
the worker process.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.datasets.scenarios import ScenarioConfig, ScenarioData, build_scenario
from repro.registry import scenario_registry

__all__ = [
    "runner_mutates_scenario",
    "scenario_data_for",
    "clear_scenario_cache",
    "scenario_cache_info",
]

_CacheKey = Tuple[str, ScenarioConfig]

_CACHE: Dict[_CacheKey, ScenarioData] = {}
_STATS = {"hits": 0, "misses": 0}


def runner_mutates_scenario(runner: object) -> bool:
    """Whether *runner* declares itself scenario-mutating (unknown = mutating)."""
    return bool(getattr(runner, "mutates_scenario", True))


def scenario_data_for(session_config) -> ScenarioData:
    """The shared scenario data for *session_config*, memoised per worker process.

    The cache key is the canonical scenario name plus the fully resolved
    :class:`ScenarioConfig` of the task's
    :class:`~repro.session.config.SessionConfig` (scale preset + overrides +
    seed), so two tasks share an entry exactly when they would build
    identical data.  The instance is shared: only runners that do not
    mutate the scenario may receive it.
    """
    name = scenario_registry.canonical_name(session_config.scenario)
    key: _CacheKey = (name, session_config.experiment_config().scenario)
    data = _CACHE.get(key)
    if data is None:
        data = build_scenario(name, key[1])
        _STATS["misses"] += 1
        _CACHE[key] = data
    else:
        _STATS["hits"] += 1
    return data


def clear_scenario_cache() -> None:
    """Drop every cached scenario and reset the hit/miss counters."""
    _CACHE.clear()
    for counter in _STATS:
        _STATS[counter] = 0


def scenario_cache_info() -> Dict[str, int]:
    """Cache statistics of this process: ``size``, ``hits`` and ``misses``."""
    return {"size": len(_CACHE), **_STATS}
