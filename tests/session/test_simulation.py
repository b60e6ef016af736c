"""Tests for the :class:`repro.Simulation` facade and builder."""

from __future__ import annotations

import json
import random

import pytest

from repro import (
    SCENARIO_SAME_CATEGORY,
    ExperimentConfig,
    ReformulationProtocol,
    SelfishStrategy,
    SessionConfig,
    Simulation,
    build_scenario,
    initial_configuration,
    register_strategy,
)
from repro.dynamics import DriftReport, DynamicsSchedule
from repro.dynamics.updates import update_workload_full
from repro.registry import strategy_registry
from repro.strategies.base import RelocationStrategy

QUICK = SessionConfig(scenario="same_category", strategy="selfish", scale="quick")


class PeriodHook(DynamicsSchedule):
    """A schedule that calls ``hooks[period](network, configuration)`` — no registry."""

    def __init__(self, hooks):
        super().__init__()
        self.hooks = hooks

    def apply_period(self, network, configuration, period):
        hook = self.hooks.get(period)
        if hook is None:
            return []
        hook(network, configuration)
        return [DriftReport(model="hook", period=period)]


class TestAcceptance:
    def test_facade_reproduces_the_hand_wired_quickstart(self):
        """The ISSUE's acceptance criterion: seed-for-seed parity."""
        simulation = Simulation.from_config(QUICK)
        facade_result = simulation.run()

        config = ExperimentConfig.quick()
        data = build_scenario(SCENARIO_SAME_CATEGORY, config.scenario)
        configuration = initial_configuration(data, "singletons")
        cost_model = data.network.cost_model(theta=config.theta(), alpha=config.alpha)
        protocol = ReformulationProtocol(cost_model, configuration, SelfishStrategy())
        manual_result = protocol.run(max_rounds=config.max_rounds)

        assert facade_result.converged == (
            manual_result.converged and not manual_result.cycle_detected
        )
        assert facade_result.final_social_cost == manual_result.final_social_cost
        assert facade_result.final_workload_cost == manual_result.final_workload_cost
        assert facade_result.social_cost_trace == manual_result.social_cost_trace
        assert simulation.configuration.signature() == configuration.signature()

    def test_custom_strategy_usable_by_name_from_the_facade(self):
        @register_strategy("session-test-lazy")
        class LazyStrategy(RelocationStrategy):
            name = "session-test-lazy"

            def propose(self, peer_id, context):
                return None

        try:
            result = Simulation.from_config(
                QUICK.with_options(strategy="session-test-lazy")
            ).run()
            assert result.converged
            assert result.moves == 0
        finally:
            strategy_registry.unregister("session-test-lazy")


class TestDiscoveryRuns:
    def test_run_result_shape(self):
        result = Simulation.from_config(QUICK).run()
        assert result.kind == "discovery"
        assert result.converged
        assert result.rounds > 0
        assert result.moves > 0
        assert result.cluster_count > 0
        assert result.purity == pytest.approx(1.0)
        assert len(result.social_cost_trace) == len(result.workload_cost_trace)
        assert len(result.social_cost_trace) == len(result.cluster_count_trace)
        assert result.improvement > 0
        assert result.protocol_result is not None

    def test_to_dict_is_json_serialisable_and_complete(self):
        result = Simulation.from_config(QUICK).run()
        payload = json.loads(result.to_json())
        assert payload["kind"] == "discovery"
        assert payload["config"]["strategy"] == "selfish"
        assert payload["social_cost_trace"] == result.social_cost_trace
        assert "protocol_result" not in payload

    def test_max_rounds_override(self):
        result = Simulation.from_config(QUICK).run(max_rounds=1)
        assert not result.converged
        assert len(result.social_cost_trace) == 2

    def test_kwargs_and_dict_configs(self):
        by_kwargs = Simulation.from_config(scenario="same_category", scale="quick").run()
        by_dict = Simulation.from_config(
            {"scenario": "same_category", "scale": "quick"}
        ).run()
        assert by_kwargs.final_social_cost == by_dict.final_social_cost

    def test_injected_data_is_shared(self):
        config = ExperimentConfig.quick()
        data = build_scenario(SCENARIO_SAME_CATEGORY, config.scenario)
        simulation = Simulation.from_config(QUICK, data=data)
        assert simulation.data is data
        assert simulation.network is data.network

    def test_observed_mode_runs_an_observation_period(self):
        result = Simulation.from_config(
            QUICK.with_options(strategy_mode="observed", initial="category")
        ).run()
        assert result.queries_routed > 0
        # discovery reports the protocol's messages only, not the observation's
        assert "QueryMessage" not in result.message_counts

    def test_events_flow_through_the_facade(self):
        simulation = Simulation.from_config(QUICK)
        rounds, moves = [], []
        simulation.on_round_end(lambda event: rounds.append(event.round_number))
        unsubscribe = simulation.on_relocation_granted(moves.append)
        result = simulation.run()
        assert len(rounds) == len(result.protocol_result.rounds)
        assert len(moves) == result.moves
        unsubscribe()
        simulation.run()
        assert len(moves) == result.moves  # no further deliveries


class TestMaintenanceRuns:
    def _simulation(self):
        return Simulation.from_config(
            QUICK.with_options(initial="category", strategy="selfish")
        )

    def test_run_maintenance_records_periods(self):
        simulation = self._simulation()
        periods_seen = []
        simulation.on_period_end(lambda event: periods_seen.append(event.record.period))
        result = simulation.run_maintenance(2)
        assert result.kind == "maintenance"
        assert result.num_periods == 2
        assert periods_seen == [0, 1]
        assert len(result.social_cost_trace) == 2
        assert len(result.cluster_count_trace) == 2
        json.dumps(result.to_dict())

    def test_cluster_count_trace_reflects_per_period_counts(self):
        simulation = self._simulation()

        def merge_first_two(network, configuration):
            first, second = configuration.nonempty_clusters()[:2]
            for peer_id in list(configuration.members(second)):
                configuration.move(peer_id, second, first)

        result = simulation.run_maintenance(
            2, schedule=PeriodHook({1: merge_first_two})
        )
        counts = result.cluster_count_trace
        assert len(counts) == 2
        # Period 0 keeps the ground-truth clustering; period 1 starts with one
        # cluster merged away, which maintenance does not resurrect.
        assert counts[0] == counts[1] + 1

    def test_run_maintenance_with_a_custom_schedule(self):
        simulation = self._simulation()
        data = simulation.data
        categories = sorted({c for c in data.data_categories.values() if c})
        rng = random.Random(5)

        def drift(network, configuration):
            cluster_id = configuration.nonempty_clusters()[0]
            members = sorted(configuration.members(cluster_id), key=repr)
            update_workload_full(network, members[:2], categories[-1], data.generator, rng=rng)

        result = simulation.run_maintenance(2, schedule=PeriodHook({1: drift}))
        assert result.num_periods == 2
        # the drift perturbs the cost before period 1's maintenance pass
        assert result.periods[1].social_cost_before >= result.periods[0].social_cost_after

    def test_negative_periods_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            self._simulation().run_maintenance(-1)

    def test_observed_message_counts_accumulate_across_periods(self):
        config = QUICK.with_options(
            initial="category", strategy_mode="observed", dynamics={"model": "workload-full"}
        )
        counts = [
            Simulation.from_config(config).run_maintenance(periods).message_counts
            for periods in (1, 2, 3)
        ]
        for fewer, more in zip(counts, counts[1:]):
            for kind, count in fewer.items():
                assert more.get(kind, 0) >= count, (kind, fewer, more)


class TestAutoBackendRecallMode:
    """At or above the threshold the recall matrix is factored, and the
    kernel runs the ``labels`` backend on it; below it, both stay dense."""

    @pytest.fixture
    def low_threshold(self, monkeypatch):
        from repro.core.recall_matrix import WeightedRecallMatrix

        monkeypatch.setattr(WeightedRecallMatrix, "FACTORED_THRESHOLD", 8)

    def test_default_config_session_builds_a_factored_matrix(self, low_threshold):
        simulation = Simulation.from_config(QUICK)
        assert simulation.cost_model.matrix.mode == "factored"
        simulation.run()
        assert simulation.last_protocol.game.kernel.backend == "labels"

    def test_maintenance_loop_builds_a_factored_matrix(self, low_threshold):
        simulation = Simulation.from_config(QUICK.with_options(initial="category"))
        simulation.run_maintenance(1)
        assert simulation.last_loop._cost_model().matrix.mode == "factored"

    def test_network_and_cost_model_build_a_factored_matrix(self, low_threshold):
        network = Simulation.from_config(QUICK).network
        assert len(network) >= 8
        assert network.recall_matrix().mode == "factored"
        cost_model = network.cost_model(use_matrix=False)
        assert cost_model.build_matrix().mode == "factored"
        assert cost_model.matrix.mode == "factored"

    def test_below_the_threshold_the_matrix_stays_dense(self):
        simulation = Simulation.from_config(QUICK)
        assert simulation.cost_model.matrix.mode == "dense"
        simulation.run()
        assert simulation.last_protocol.game.kernel.backend == "dense"


class TestDeclarativeDynamics:
    DRIFT = {
        "model": "workload-full",
        "options": {"peer_fraction": 0.5},
        "start": 1,
    }

    def _simulation(self, **overrides):
        return Simulation.from_config(
            QUICK.with_options(initial="category", dynamics=self.DRIFT, **overrides)
        )

    def test_config_dynamics_drive_the_maintenance_run(self):
        simulation = self._simulation()
        events = []
        simulation.on_drift_applied(events.append)
        result = simulation.run_maintenance(3)
        assert [event.period for event in events] == [1, 2]
        assert all(event.report.model == "workload-full" for event in events)
        # the drift perturbs the cost before period 1's maintenance pass
        assert result.periods[1].social_cost_before > result.periods[0].social_cost_after
        assert [entry["period"] for entry in result.extras["drift"]] == [1, 2]
        json.dumps(result.to_dict())

    def test_dynamics_argument_overrides_the_config(self):
        simulation = self._simulation()
        events = []
        simulation.on_drift_applied(events.append)
        simulation.run_maintenance(2, dynamics={"model": "churn", "options": {"departures": 1}})
        assert {event.report.model for event in events} == {"churn"}

    def test_prebuilt_schedule_is_accepted(self):
        from repro.dynamics import DynamicsSchedule

        simulation = Simulation.from_config(QUICK.with_options(initial="category"))
        schedule = DynamicsSchedule.from_dict({"model": "churn", "options": {"departures": 2}})
        result = simulation.run_maintenance(1, schedule=schedule)
        assert len(result.extras["drift"][0]["peer_ids"]) == 2

    def test_drift_is_reproducible_across_simulations(self):
        costs = [self._simulation().run_maintenance(3).social_cost_trace for _ in range(2)]
        assert costs[0] == costs[1]

    def test_builder_dynamics_setter(self):
        config = Simulation.builder().scale("quick").dynamics(self.DRIFT).config()
        assert config.dynamics == self.DRIFT


class TestBuilder:
    def test_fluent_construction_matches_from_config(self):
        built = (
            Simulation.builder()
            .scenario("same_category")
            .strategy("selfish")
            .scale("quick")
            .initial("singletons")
            .build()
        )
        assert built.config == QUICK
        assert built.run().final_social_cost == Simulation.from_config(QUICK).run().final_social_cost

    def test_builder_accepts_strategy_instances(self):
        strategy = SelfishStrategy()
        simulation = Simulation.builder().scale("quick").strategy(strategy).build()
        assert simulation.strategy is strategy
        assert simulation.config.strategy == "selfish"

    def test_builder_rejects_options_with_a_strategy_instance(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Simulation.builder().strategy(SelfishStrategy(), weight=0.9)

    def test_builder_later_strategy_call_replaces_an_instance(self):
        simulation = (
            Simulation.builder()
            .scale("quick")
            .strategy(SelfishStrategy())
            .strategy("hybrid", weight=0.25)
            .build()
        )
        assert simulation.config.strategy == "hybrid"
        assert simulation.strategy.weight == 0.25

    def test_builder_options_and_observers(self):
        seen = []
        simulation = (
            Simulation.builder()
            .scale("quick")
            .initial("random", num_clusters=5)
            .theta("linear")
            .alpha(1.5)
            .max_rounds(30)
            .seed(11)
            .router("probe-k", k=2)
            .on_round_end(lambda event: seen.append(event))
            .build()
        )
        config = simulation.config
        assert config.num_clusters == 5
        assert config.alpha == 1.5
        assert config.max_rounds == 30
        assert config.seed == 11
        assert config.router == "probe-k"
        assert config.router_options == {"k": 2}
        simulation.run()
        assert seen

    def test_protocol_options(self):
        config = (
            Simulation.builder()
            .scale("quick")
            .protocol_options(allow_cluster_creation=False, restrict_to_nonempty=True)
            .config()
        )
        assert config.allow_cluster_creation is False
        assert config.restrict_to_nonempty is True
