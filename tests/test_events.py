"""Tests for the event hook system (``repro.events``)."""

from __future__ import annotations

import pytest

from repro.datasets.scenarios import SCENARIO_SAME_CATEGORY, ScenarioConfig, build_scenario
from repro.dynamics.periodic import PeriodicMaintenanceLoop
from repro.errors import ConfigurationError
from repro.events import (
    EVENT_NAMES,
    ROUND_END,
    CostTraceRecorder,
    EventHooks,
    PeriodEndEvent,
    RelocationGrantedEvent,
    RoundEndEvent,
)
from repro.peers.configuration import ClusterConfiguration
from repro.protocol.reformulation import ReformulationProtocol
from repro.strategies.selfish import SelfishStrategy

from tests.conftest import make_tiny_network

SMALL = ScenarioConfig(
    num_peers=16,
    num_categories=4,
    documents_per_peer=4,
    terms_per_document=3,
    category_vocabulary_size=15,
    queries_per_peer=3,
    seed=9,
)


class TestEventHooks:
    def test_emit_delivers_in_subscription_order(self):
        hooks = EventHooks()
        seen = []
        hooks.subscribe(ROUND_END, lambda payload: seen.append(("a", payload)))
        hooks.subscribe(ROUND_END, lambda payload: seen.append(("b", payload)))
        hooks.emit(ROUND_END, 1)
        assert seen == [("a", 1), ("b", 1)]

    def test_unsubscribe_stops_delivery(self):
        hooks = EventHooks()
        seen = []
        unsubscribe = hooks.subscribe(ROUND_END, seen.append)
        hooks.emit(ROUND_END, 1)
        unsubscribe()
        unsubscribe()  # idempotent
        hooks.emit(ROUND_END, 2)
        assert seen == [1]
        assert hooks.subscriber_count(ROUND_END) == 0

    def test_emit_without_subscribers_is_a_no_op(self):
        EventHooks().emit(ROUND_END, 1)

    def test_subscriber_errors_propagate(self):
        hooks = EventHooks()
        hooks.subscribe(ROUND_END, lambda payload: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            hooks.emit(ROUND_END, 1)


class TestEventNames:
    def test_an_unknown_name_is_refused_with_the_valid_ones(self):
        hooks = EventHooks()
        with pytest.raises(ConfigurationError, match="'round_ned'") as excinfo:
            hooks.subscribe("round_ned", lambda payload: None)
        assert all(name in str(excinfo.value) for name in EVENT_NAMES)
        assert hooks.subscriber_count("round_ned") == 0

    def test_there_are_sixteen_distinct_names(self):
        assert len(set(EVENT_NAMES)) == len(EVENT_NAMES) == 16

    @pytest.mark.parametrize("name", EVENT_NAMES)
    def test_every_name_subscribes_and_its_registrar_matches(self, name):
        hooks = EventHooks()
        seen = []
        hooks.subscribe(name, seen.append)
        getattr(hooks, f"on_{name}")(seen.append)
        hooks.emit(name, name)
        assert seen == [name, name]
        assert hooks.subscriber_count(name) == 2


class TestProtocolEvents:
    def _run(self):
        network = make_tiny_network()
        configuration = ClusterConfiguration.singletons(["alice", "bob", "carol"])
        hooks = EventHooks()
        rounds, moves = [], []
        hooks.on_round_end(rounds.append)
        hooks.on_relocation_granted(moves.append)
        protocol = ReformulationProtocol(
            network.cost_model(), configuration, SelfishStrategy(), hooks=hooks
        )
        return protocol.run(), rounds, moves

    def test_round_end_fires_once_per_executed_round(self):
        result, rounds, _moves = self._run()
        assert len(rounds) == len(result.rounds)
        assert all(isinstance(event, RoundEndEvent) for event in rounds)
        assert [event.round_number for event in rounds] == list(range(len(rounds)))

    def test_round_end_carries_the_recorded_costs(self):
        result, rounds, _moves = self._run()
        # Non-quiescent rounds append to the traces; their events mirror them.
        for event in rounds:
            if not event.result.quiescent:
                index = event.round_number + 1  # +1 for the initial record
                assert event.social_cost == result.social_cost_trace[index]
                assert event.cluster_count == result.cluster_count_trace[index]

    def test_relocation_granted_fires_once_per_move(self):
        result, _rounds, moves = self._run()
        assert len(moves) == result.total_moves
        assert all(isinstance(event, RelocationGrantedEvent) for event in moves)

    def test_cost_trace_recorder_matches_post_hoc_traces(self):
        network = make_tiny_network()
        configuration = ClusterConfiguration.singletons(["alice", "bob", "carol"])
        hooks = EventHooks()
        recorder = CostTraceRecorder().attach(hooks)
        protocol = ReformulationProtocol(
            network.cost_model(), configuration, SelfishStrategy(), hooks=hooks
        )
        result = protocol.run()
        # The recorder sees every non-quiescent round's record (the traces
        # additionally hold the initial pre-run record) plus the final
        # quiescent round's repeat of the last costs.
        assert recorder.social_cost[: len(result.social_cost_trace) - 1] == (
            result.social_cost_trace[1:]
        )
        assert len(recorder.moves) == result.total_moves


class TestMaintenanceEvents:
    def test_period_end_fires_once_per_period(self):
        data = build_scenario(SCENARIO_SAME_CATEGORY, SMALL)
        from repro.datasets.scenarios import category_configuration

        hooks = EventHooks()
        periods = []
        hooks.on_period_end(periods.append)
        loop = PeriodicMaintenanceLoop(
            data.network,
            category_configuration(data),
            SelfishStrategy(),
            hooks=hooks,
        )
        loop.run(2)
        assert len(periods) == 2
        assert all(isinstance(event, PeriodEndEvent) for event in periods)
        assert [event.record.period for event in periods] == [0, 1]
        assert periods[0].protocol_result is not None
