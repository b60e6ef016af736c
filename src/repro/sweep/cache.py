"""Per-worker scenario memoisation for the sweep engine.

Sweep tasks that share a ``(scenario, ScenarioConfig)`` pair — every
strategy × initial × theta combination evaluated at the same seed — used to
rebuild identical :class:`~repro.datasets.scenarios.ScenarioData` from
scratch, corpus generation and all.  (Replications are *different* keys by
design: each replication's seed flows into ``ScenarioConfig.seed`` so it
genuinely resamples the world.)  This module keeps one built scenario per
distinct key in the worker process and hands it to each task:

* **non-mutating runners** (``discover`` and anything registered with
  ``mutates_scenario=False``) share the cached instance directly — a
  discovery run only *derives* models from the network, it never changes it;
* **mutating runners** (the maintenance family, and any runner that does not
  declare itself) receive a private :func:`copy.deepcopy`, so the pristine
  cache entry is never perturbed (copy-on-write).
  :class:`~repro.peers.network.PeerNetwork` drops its derived-model caches
  during the copy, so a copied-then-mutated scenario behaves exactly like a
  freshly built one.

Because the cached build is deterministic in the key, a cache hit and a cache
miss produce byte-identical task results — so sweeps stay reproducible for
any worker count, which the engine's parity tests assert with the cache on.

This memo is the only way a sweep reuses a built scenario: the coordinator
of a multi-process sweep builds nothing, and nothing is persisted beyond
the worker process.

Set ``REPRO_SWEEP_SCENARIO_CACHE=0`` to disable the cache globally (every
task then rebuilds, the pre-cache behaviour).
"""

from __future__ import annotations

import copy
import os
from typing import Dict, Tuple

from repro.datasets.scenarios import ScenarioConfig, ScenarioData, build_scenario
from repro.registry import scenario_registry

__all__ = [
    "scenario_cache_enabled",
    "scenario_data_for",
    "clear_scenario_cache",
    "scenario_cache_info",
]

_CacheKey = Tuple[str, ScenarioConfig]

_CACHE: Dict[_CacheKey, ScenarioData] = {}
_STATS = {"hits": 0, "misses": 0, "copies": 0}

#: Environment switch disabling the cache ("0"/"false"/"no"/"off").
ENV_FLAG = "REPRO_SWEEP_SCENARIO_CACHE"


def scenario_cache_enabled() -> bool:
    """Whether the per-worker scenario cache is enabled (default: yes)."""
    return os.environ.get(ENV_FLAG, "1").strip().lower() not in {"0", "false", "no", "off"}


def runner_mutates_scenario(runner: object) -> bool:
    """Whether *runner* declares itself scenario-mutating (unknown = mutating)."""
    return bool(getattr(runner, "mutates_scenario", True))


def scenario_data_for(session_config, *, mutates: bool) -> ScenarioData:
    """The scenario data for *session_config*, memoised per worker process.

    Parameters
    ----------
    session_config:
        The task's :class:`~repro.session.config.SessionConfig`; the cache
        key is its canonical scenario name plus the fully resolved
        :class:`ScenarioConfig` (scale preset + overrides + seed), so two
        tasks share an entry exactly when they would build identical data.
    mutates:
        ``True`` returns a private deep copy (copy-on-write for runners that
        perturb the network); ``False`` returns the shared instance.
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
    if mutates:
        _STATS["copies"] += 1
        return copy.deepcopy(data)
    return data


def clear_scenario_cache() -> None:
    """Drop every cached scenario and reset the hit/miss counters."""
    _CACHE.clear()
    for counter in _STATS:
        _STATS[counter] = 0


def scenario_cache_info() -> Dict[str, int]:
    """Cache statistics of this process: ``size``, ``hits``, ``misses`` and
    ``copies``."""
    return {"size": len(_CACHE), **_STATS}


__all__.append("runner_mutates_scenario")
