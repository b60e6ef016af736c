"""Relocation strategies: selfish, altruistic, and the hybrid extension.

Strategies are registered in :data:`repro.registry.strategy_registry`;
:func:`build_strategy` constructs one by name.  Importing this package (or
:mod:`repro.baselines` for the baseline strategies) registers the built-ins.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Mapping

from repro.registry import strategy_registry
from repro.strategies.altruistic import AltruisticStrategy, exact_contributions
from repro.strategies.base import (
    MoverBatch,
    RelocationProposal,
    RelocationStrategy,
    StrategyContext,
)
from repro.strategies.hybrid import HybridStrategy
from repro.strategies.selfish import SelfishStrategy

__all__ = [
    "RelocationStrategy",
    "RelocationProposal",
    "MoverBatch",
    "StrategyContext",
    "SelfishStrategy",
    "AltruisticStrategy",
    "HybridStrategy",
    "exact_contributions",
    "build_strategy",
    "strategy_keywords",
]


def _accepts_keyword(factory: Any, keyword: str) -> bool:
    """Whether calling *factory* with ``keyword=...`` is valid."""
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return True
    if keyword in parameters:
        return True
    return any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


def build_strategy(name: str, *, mode: str = "exact", **kwargs: object) -> RelocationStrategy:
    """Construct a relocation strategy by its registered *name*.

    The built-ins are ``selfish``, ``altruistic`` and ``hybrid`` plus the
    ``static`` and ``random`` baselines; anything registered through
    :func:`repro.registry.register_strategy` resolves the same way.  *mode*
    is forwarded only to strategies that take it (the paper's strategies
    distinguish ``exact`` and ``observed`` evaluation; baselines do not).
    """
    return strategy_registry.create(name, **strategy_keywords(name, mode, kwargs))


def strategy_keywords(name: str, mode: str, options: Mapping[str, Any]) -> Dict[str, Any]:
    """The keywords :func:`build_strategy` passes to *name*'s component.

    That is *options* plus *mode*, when the component takes one.
    """
    if name not in strategy_registry:
        # The baseline strategies register on import of repro.baselines; pull
        # them in before giving up so e.g. "static" resolves from a cold start.
        import repro.baselines  # noqa: F401  (registration side effect)
    keywords = dict(options)
    if _accepts_keyword(strategy_registry.get(name), "mode"):
        keywords.setdefault("mode", mode)
    return keywords
