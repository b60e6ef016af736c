"""Tests for the component registry layer (``repro.registry``)."""

from __future__ import annotations

import pytest

from repro import baselines  # noqa: F401  (registers the baseline strategies)
from repro.core.theta import LogarithmicTheta, theta_from_name
from repro.errors import ConfigurationError, DuplicateComponentError, UnknownComponentError
from repro.registry import (
    ComponentRegistry,
    executor_registry,
    initializer_registry,
    register_strategy,
    router_registry,
    scenario_registry,
    strategy_registry,
    theta_registry,
    workload_registry,
)
from repro.strategies import build_strategy
from repro.strategies.base import RelocationStrategy
from repro.strategies.selfish import SelfishStrategy

from tests.conftest import make_tiny_network


class TestComponentRegistry:
    def test_register_and_create(self):
        registry = ComponentRegistry("widget")
        registry.register("gear", lambda teeth=8: ("gear", teeth))
        assert registry.create("gear") == ("gear", 8)
        assert registry.create("gear", teeth=12) == ("gear", 12)

    def test_decorator_form_returns_the_component(self):
        registry = ComponentRegistry("widget")

        @registry.register("spring")
        class Spring:
            pass

        assert registry.get("spring") is Spring
        assert Spring.__name__ == "Spring"

    def test_names_are_normalised(self):
        registry = ComponentRegistry("widget")
        registry.register("Same-Category", object())
        assert "same_category" in registry
        assert "SAME-CATEGORY" in registry
        assert registry.canonical_name("same_category") == "same-category"

    def test_aliases_resolve_to_the_canonical_component(self):
        registry = ComponentRegistry("widget")
        registry.register("logarithmic", LogarithmicTheta, aliases=("log",))
        assert registry.get("log") is LogarithmicTheta
        assert registry.names() == ["logarithmic"]  # aliases are not listed

    def test_duplicate_name_raises(self):
        registry = ComponentRegistry("widget")
        registry.register("gear", object())
        with pytest.raises(DuplicateComponentError):
            registry.register("gear", object())

    def test_duplicate_alias_raises(self):
        registry = ComponentRegistry("widget")
        registry.register("gear", object())
        with pytest.raises(DuplicateComponentError):
            registry.register("cog", object(), aliases=("gear",))

    def test_replace_overrides_deliberately(self):
        registry = ComponentRegistry("widget")
        registry.register("gear", "old")
        registry.register("gear", "new", replace=True)
        assert registry.get("gear") == "new"

    def test_unknown_name_error_enumerates_components(self):
        registry = ComponentRegistry("widget")
        registry.register("gear", object())
        registry.register("spring", object())
        with pytest.raises(UnknownComponentError) as excinfo:
            registry.get("piston")
        message = str(excinfo.value)
        assert "gear" in message and "spring" in message
        assert excinfo.value.known == ["gear", "spring"]

    def test_unknown_component_error_is_a_value_error(self):
        registry = ComponentRegistry("widget")
        with pytest.raises(ValueError):
            registry.get("anything")

    def test_unregister_removes_aliases_too(self):
        registry = ComponentRegistry("widget")
        registry.register("gear", object(), aliases=("cog",))
        registry.unregister("gear")
        assert "gear" not in registry
        assert "cog" not in registry


class TestInvalidOptions:
    """An option the component does not take fails in ``create``, named."""

    @pytest.mark.parametrize(
        "build, component, key, accepted",
        [
            pytest.param(
                lambda: router_registry.create("broadcast", make_tiny_network(), k=3),
                "router 'broadcast'", "k", [], id="router",
            ),
            pytest.param(
                lambda: theta_registry.create("linear", slop=2.0),
                "theta function 'linear'", "slop", ["slope"], id="theta",
            ),
            pytest.param(
                lambda: strategy_registry.create("selfish", weight=0.5),
                "strategy 'selfish'", "weight", ["mode"], id="strategy",
            ),
            pytest.param(
                lambda: workload_registry.create("zipf", expo=2.0),
                "traffic workload 'zipf'", "expo", ["exponent"], id="workload",
            ),
            pytest.param(
                lambda: executor_registry.create("process-pool", window=4),
                "sweep executor 'process-pool'", "window", ["max_workers"], id="executor",
            ),
        ],
    )
    def test_an_unknown_key_names_itself_and_the_accepted_ones(self, build, component, key, accepted):
        with pytest.raises(ConfigurationError) as excinfo:
            build()
        assert str(excinfo.value) == (
            f"invalid options for {component}: unexpected keys [{key!r}]; "
            f"accepted keywords: {accepted}"
        )

    def test_build_strategy_goes_through_create(self):
        with pytest.raises(ConfigurationError, match=r"strategy 'hybrid': unexpected keys \['wieght'\]"):
            build_strategy("hybrid", wieght=0.25)

    def test_a_type_error_inside_a_component_stays_a_type_error(self):
        @register_strategy("test-brittle")
        class BrittleStrategy(RelocationStrategy):
            name = "test-brittle"

            def __init__(self, depth=1):
                super().__init__()
                raise TypeError("depth arithmetic failed inside the constructor")

            def propose(self, peer_id, context):
                return None

        try:
            with pytest.raises(TypeError, match="depth arithmetic failed"):
                build_strategy("test-brittle", depth=2)
        finally:
            strategy_registry.unregister("test-brittle")


class TestBuiltinRegistrations:
    def test_builtin_strategies_are_registered(self):
        for name in ("selfish", "altruistic", "hybrid", "static", "random"):
            assert name in strategy_registry, name

    def test_builtin_thetas_are_registered(self):
        for name in ("linear", "logarithmic", "constant", "polynomial"):
            assert name in theta_registry, name
        assert theta_registry.canonical_name("log") == "logarithmic"

    def test_builtin_scenarios_are_registered(self):
        for name in ("same-category", "different-category", "uniform"):
            assert name in scenario_registry, name
        # underscore spelling resolves too
        assert scenario_registry.canonical_name("same_category") == "same-category"

    def test_builtin_routers_are_registered(self):
        assert "broadcast" in router_registry
        assert "probe-k" in router_registry

    def test_builtin_initializers_are_registered(self):
        for name in ("singletons", "random", "fewer", "more", "category"):
            assert name in initializer_registry, name


class TestFactoryEntryPoints:
    """The pre-registry factories still resolve, now through the registry."""

    def test_build_strategy_resolves_builtins(self):
        assert isinstance(build_strategy("selfish"), SelfishStrategy)
        assert build_strategy("hybrid", weight=0.25).weight == 0.25
        assert build_strategy("static").name == "static"

    def test_build_strategy_unknown_name_lists_components(self):
        with pytest.raises(ValueError) as excinfo:
            build_strategy("galactic")
        assert "selfish" in str(excinfo.value)

    def test_theta_from_name_resolves_builtins(self):
        assert isinstance(theta_from_name("log"), LogarithmicTheta)

    def test_theta_from_name_unknown_name_lists_components(self):
        with pytest.raises(ValueError) as excinfo:
            theta_from_name("exponential")
        assert "linear" in str(excinfo.value)

    def test_mode_not_forwarded_to_strategies_without_it(self):
        # StaticStrategy takes no ``mode``; build_strategy must not pass one.
        strategy = build_strategy("static", mode="observed")
        assert not hasattr(strategy, "mode")


class TestCustomComponents:
    def test_registered_strategy_usable_by_name(self):
        @register_strategy("test-lazy")
        class LazyStrategy(RelocationStrategy):
            name = "test-lazy"

            def propose(self, peer_id, context):
                return None

        try:
            strategy = build_strategy("test-lazy")
            assert isinstance(strategy, LazyStrategy)
        finally:
            strategy_registry.unregister("test-lazy")

    def test_registered_strategy_visible_in_cli_choices(self):
        from repro.cli import build_parser

        @register_strategy("test-plugin")
        class PluginStrategy(RelocationStrategy):
            name = "test-plugin"

            def propose(self, peer_id, context):
                return None

        try:
            arguments = build_parser().parse_args(
                ["discover", "--scale", "quick", "--strategy", "test-plugin"]
            )
            assert arguments.strategy == "test-plugin"
        finally:
            strategy_registry.unregister("test-plugin")
