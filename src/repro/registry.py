"""Named-component registries: the library's plugin surface.

Every pluggable ingredient of a simulation — relocation strategies, theta
(cluster membership cost) functions, dataset scenarios, query routers and
initial-configuration builders — is registered in a
:class:`ComponentRegistry` under a short name.  The pre-existing factory
entry points (``build_strategy``, ``theta_from_name``, ``build_scenario``,
``initial_configuration``, ``build_router``) are thin lookups into these
registries, so third parties can plug in new components without touching the
core modules::

    from repro.registry import register_strategy
    from repro.strategies.base import RelocationStrategy

    @register_strategy("lazy")
    class LazyStrategy(RelocationStrategy):
        def propose(self, peer_id, context):
            return None

    # "lazy" is now usable by name everywhere a strategy name is accepted:
    # SessionConfig(strategy="lazy"), build_strategy("lazy"), the CLI, ...

Names are normalised (lower-cased, ``_`` treated as ``-``) so that e.g.
``"same_category"`` and ``"same-category"`` refer to the same scenario.
Registering a taken name raises :class:`~repro.errors.DuplicateComponentError`
unless ``replace=True``; looking up a missing name raises
:class:`~repro.errors.UnknownComponentError` whose message enumerates the
available components.

The registry is deliberately ignorant of the component types it stores; the
modules that define the built-in components register them at import time, so
importing a component module (or anything that re-exports it, e.g. ``repro``
or ``repro.session``) is enough to populate the registries.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, DuplicateComponentError, UnknownComponentError

__all__ = [
    "ComponentRegistry",
    "strategy_registry",
    "theta_registry",
    "scenario_registry",
    "router_registry",
    "initializer_registry",
    "runner_registry",
    "drift_registry",
    "workload_registry",
    "executor_registry",
    "register_strategy",
    "register_theta",
    "register_scenario",
    "register_router",
    "register_initializer",
    "register_runner",
    "register_drift",
    "register_workload",
    "register_executor",
]


def _normalize(name: object) -> str:
    return str(name).strip().lower().replace("_", "-")


def _binding_problem(component: Any, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Optional[str]:
    """Why *args* and *kwargs* do not bind to *component*'s signature; ``None`` if they do."""
    try:
        signature = inspect.signature(component)
    except (TypeError, ValueError):
        return None
    try:
        signature.bind(*args, **kwargs)
    except TypeError as error:
        parameters = list(signature.parameters.values())
        keyword_kinds = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
        keywords = [p.name for p in parameters[len(args):] if p.kind in keyword_kinds]
        unexpected = sorted(set(kwargs) - set(keywords))
        if unexpected and not any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters):
            return f"unexpected keys {unexpected}; accepted keywords: {keywords}"
        return f"{error}; accepted keywords: {keywords}"
    return None


class ComponentRegistry:
    """A mapping of normalised names (and aliases) to registered components.

    A "component" is any object — typically a class or factory callable —
    that :meth:`create` can call to build an instance.  Non-callable payloads
    (e.g. declarative spec objects) are supported through :meth:`get`.
    """

    def __init__(self, kind: str) -> None:
        #: Human-readable kind used in error messages ("strategy", "router", ...).
        self.kind = kind
        self._components: Dict[str, Any] = {}
        self._canonical: Dict[str, str] = {}  # normalised name/alias -> canonical name

    # -- registration ------------------------------------------------------------

    def register(
        self,
        name: str,
        component: Optional[Any] = None,
        *,
        aliases: Sequence[str] = (),
        replace: bool = False,
    ) -> Any:
        """Register *component* under *name* (plus *aliases*).

        Usable directly (``registry.register("x", factory)``) or as a
        decorator (``@registry.register("x")``).  Returns the component so
        decorated classes/functions stay bound to their module name.
        """
        if component is None:
            def decorator(actual: Any) -> Any:
                self.register(name, actual, aliases=aliases, replace=replace)
                return actual

            return decorator

        canonical = _normalize(name)
        keys = [canonical] + [_normalize(alias) for alias in aliases]
        if not replace:
            for key in keys:
                if key in self._canonical:
                    raise DuplicateComponentError(self.kind, key)
        self._components[canonical] = component
        for key in keys:
            self._canonical[key] = canonical
        return component

    def unregister(self, name: str) -> None:
        """Remove a component and every alias pointing at it."""
        canonical = self._canonical.get(_normalize(name))
        if canonical is None:
            raise UnknownComponentError(self.kind, name, self.names())
        del self._components[canonical]
        self._canonical = {
            key: target for key, target in self._canonical.items() if target != canonical
        }

    # -- lookup ------------------------------------------------------------------

    def canonical_name(self, name: str) -> str:
        """The canonical registered name for *name* (resolving aliases)."""
        canonical = self._canonical.get(_normalize(name))
        if canonical is None:
            raise UnknownComponentError(self.kind, name, self.names())
        return canonical

    def get(self, name: str) -> Any:
        """The registered component for *name* (resolving aliases)."""
        return self._components[self.canonical_name(name)]

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the component registered under *name*.

        Options its signature does not take raise a
        :class:`~repro.errors.ConfigurationError` naming them and the accepted
        keywords; a ``TypeError`` raised inside the component stays as it is.
        """
        component = self.get(name)
        try:
            return component(*args, **kwargs)
        except TypeError:
            self.check_options(name, *args, **kwargs)
            raise

    def check_options(self, name: str, *args: Any, **kwargs: Any) -> None:
        """Check that *args* and *kwargs* bind to the signature of *name*'s component.

        Options it does not take raise a :class:`~repro.errors.ConfigurationError`
        naming them and the accepted keywords.  Nothing is built, so a sweep
        can check its tasks' options before it runs any of them.
        """
        problem = _binding_problem(self.get(name), args, kwargs)
        if problem is not None:
            raise ConfigurationError(f"invalid options for {self.kind} {name!r}: {problem}") from None

    def names(self) -> List[str]:
        """The sorted canonical component names (aliases excluded)."""
        return sorted(self._components)

    def items(self) -> List[Tuple[str, Any]]:
        """``(canonical name, component)`` pairs, sorted by name."""
        return sorted(self._components.items())

    def __contains__(self, name: object) -> bool:
        return _normalize(name) in self._canonical

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._components)

    def __repr__(self) -> str:
        return f"ComponentRegistry(kind={self.kind!r}, names={self.names()})"


#: Relocation strategies (``selfish``, ``altruistic``, ``hybrid``, baselines, plugins).
strategy_registry = ComponentRegistry("strategy")
#: Cluster membership cost functions (``linear``, ``logarithmic``, ...).
theta_registry = ComponentRegistry("theta function")
#: Dataset scenarios (``same-category``, ``different-category``, ``uniform``).
scenario_registry = ComponentRegistry("scenario")
#: Query routers (``broadcast``, ``probe-k``).
router_registry = ComponentRegistry("router")
#: Initial-configuration builders (``singletons``, ``random``, ``fewer``, ``more``, ``category``).
initializer_registry = ComponentRegistry("initial configuration")
#: Sweep task runners (``discover``, ``maintain``, experiment-specific runners).
#: A runner is ``callable(simulation, options) -> RunResult`` and is referenced
#: by name from a :class:`~repro.sweep.spec.SweepTask`, so tasks serialize
#: cleanly across process boundaries.
runner_registry = ComponentRegistry("sweep runner")
#: Exogenous drift models (``workload-full``, ``content-fraction``, ``churn``,
#: ``composite``, ``none``, plugins).  A drift model is a factory/class whose
#: instances implement the :class:`~repro.dynamics.models.DriftModel` protocol
#: (``prepare(data, rng)`` / ``apply(network, configuration, period, rng)``)
#: and are constructible from a plain dict of strings/numbers, so dynamics
#: specs round-trip through JSON like every other component reference.
drift_registry = ComponentRegistry("drift model")
#: Traffic workload generators (``uniform``, ``zipf``, ``flash-crowd``,
#: ``replay``, plugins).  A workload generator is a factory/class whose
#: instances implement the :class:`~repro.traffic.workloads.WorkloadGenerator`
#: protocol (``streams(context) -> [QueryEventStream, ...]``) and are
#: constructible from a plain dict of strings/numbers, so arrival patterns
#: sweep and JSON-round-trip like every other component reference.
workload_registry = ComponentRegistry("traffic workload")
#: Sweep executors (``serial``, ``process-pool``, ``distributed``,
#: plugins).  An executor is a factory/class whose instances implement the
#: :class:`~repro.sweep.executors.SweepExecutor` protocol (``run(tasks,
#: context) -> iterator of task outcomes``) and are constructible from a
#: plain dict of strings/numbers, so execution backends are selected by name
#: or JSON spec like every other component.
executor_registry = ComponentRegistry("sweep executor")


def register_strategy(
    name: str, *, aliases: Sequence[str] = (), replace: bool = False
) -> Callable[[Any], Any]:
    """Class/factory decorator registering a relocation strategy under *name*."""
    return strategy_registry.register(name, aliases=aliases, replace=replace)


def register_theta(
    name: str, *, aliases: Sequence[str] = (), replace: bool = False
) -> Callable[[Any], Any]:
    """Class/factory decorator registering a theta function under *name*."""
    return theta_registry.register(name, aliases=aliases, replace=replace)


def register_scenario(
    name: str, *, aliases: Sequence[str] = (), replace: bool = False
) -> Callable[[Any], Any]:
    """Decorator registering a scenario spec under *name*."""
    return scenario_registry.register(name, aliases=aliases, replace=replace)


def register_router(
    name: str, *, aliases: Sequence[str] = (), replace: bool = False
) -> Callable[[Any], Any]:
    """Class/factory decorator registering a query router under *name*."""
    return router_registry.register(name, aliases=aliases, replace=replace)


def register_initializer(
    name: str, *, aliases: Sequence[str] = (), replace: bool = False
) -> Callable[[Any], Any]:
    """Decorator registering an initial-configuration builder under *name*."""
    return initializer_registry.register(name, aliases=aliases, replace=replace)


def register_drift(
    name: str, *, aliases: Sequence[str] = (), replace: bool = False
) -> Callable[[Any], Any]:
    """Class/factory decorator registering an exogenous drift model under *name*.

    The registered component is called with the model's plain-dict options
    (``drift_registry.create(name, **options)``) and must return an object
    implementing the :class:`~repro.dynamics.models.DriftModel` protocol.
    """
    return drift_registry.register(name, aliases=aliases, replace=replace)


def register_workload(
    name: str, *, aliases: Sequence[str] = (), replace: bool = False
) -> Callable[[Any], Any]:
    """Class/factory decorator registering a traffic workload generator under *name*.

    The registered component is called with the generator's plain-dict
    options (``workload_registry.create(name, **options)``) and must return
    an object implementing the
    :class:`~repro.traffic.workloads.WorkloadGenerator` protocol.
    """
    return workload_registry.register(name, aliases=aliases, replace=replace)


def register_executor(
    name: str, *, aliases: Sequence[str] = (), replace: bool = False
) -> Callable[[Any], Any]:
    """Class/factory decorator registering a sweep executor under *name*.

    The registered component is called with the executor's plain-dict options
    (``executor_registry.create(name, **options)``) and must return an object
    implementing the :class:`~repro.sweep.executors.SweepExecutor` protocol.
    """
    return executor_registry.register(name, aliases=aliases, replace=replace)


def register_runner(
    name: str,
    *,
    aliases: Sequence[str] = (),
    replace: bool = False,
    mutates_scenario: Optional[bool] = None,
) -> Callable[[Any], Any]:
    """Decorator registering a sweep task runner under *name*.

    A runner receives a fully assembled
    :class:`~repro.session.simulation.Simulation` plus the task's plain-dict
    options and returns a :class:`~repro.session.result.RunResult`.

    ``mutates_scenario`` declares whether the runner mutates the scenario's
    network (content/workload updates, churn).  The sweep engine's per-worker
    scenario cache hands non-mutating runners the shared
    :class:`~repro.datasets.scenarios.ScenarioData`; a mutating runner's
    simulation builds its own.  Runners that do not declare the flag are
    treated as mutating (the safe default).
    """

    def decorator(component: Any) -> Any:
        if mutates_scenario is not None:
            component.mutates_scenario = mutates_scenario
        return runner_registry.register(name, component, aliases=aliases, replace=replace)

    return decorator
