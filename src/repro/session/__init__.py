"""Unified session API: one entry point assembling a whole simulation.

* :class:`~repro.session.config.SessionConfig` — declarative description of
  a run (every component referenced by registry name; JSON round-trippable).
* :class:`~repro.session.simulation.Simulation` — the facade that assembles
  scenario, initial configuration, cost model, strategy, router and protocol
  from a config and drives discovery runs, maintenance periods and traffic;
  ``Simulation(config, data=..., hooks=..., **overrides)`` is the one way
  to build a session, and ``simulation.hooks`` the one place to subscribe
  to its events.
* :class:`~repro.session.result.RunResult` — unified, JSON-exportable result.

Importing this package registers the built-in components (strategies,
baselines, thetas, scenarios, routers, initializers).
"""

import repro.baselines  # noqa: F401  (registers the baseline strategies)
from repro.session.config import SessionConfig
from repro.session.result import RunResult
from repro.session.simulation import Simulation

__all__ = ["SessionConfig", "Simulation", "RunResult"]
