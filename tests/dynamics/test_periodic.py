"""Tests for the periodic maintenance loop (periods of observe + maintain)."""

from __future__ import annotations

import random

import pytest

from repro.datasets.scenarios import category_configuration
from repro.dynamics.periodic import PeriodicMaintenanceLoop
from repro.dynamics.updates import update_workload_full
from repro.strategies.selfish import SelfishStrategy
from tests.conftest import make_small_scenario


@pytest.fixture
def scenario():
    return make_small_scenario()


def make_loop(scenario, strategy=None, **kwargs):
    configuration = category_configuration(scenario)
    return PeriodicMaintenanceLoop(
        scenario.network,
        configuration,
        strategy if strategy is not None else SelfishStrategy(),
        **kwargs,
    )


class TestRunPeriod:
    def test_quiet_period_changes_nothing(self, scenario):
        loop = make_loop(scenario)
        record = loop.run_period()
        assert record.moves == 0
        assert record.social_cost_before == pytest.approx(record.social_cost_after)
        assert record.converged

    def test_period_with_drift_triggers_maintenance(self, scenario):
        loop = make_loop(scenario)
        categories = sorted({c for c in scenario.data_categories.values() if c})
        rng = random.Random(5)

        def drift(network, configuration):
            cluster_id = configuration.nonempty_clusters()[0]
            members = sorted(configuration.members(cluster_id), key=repr)
            update_workload_full(network, members, categories[-1], scenario.generator, rng=rng)

        baseline = loop.run_period()
        drift(scenario.network, loop.configuration)
        scenario.network.invalidate()
        drifted = loop.run_period()
        assert drifted.social_cost_before > baseline.social_cost_after
        assert drifted.social_cost_after <= drifted.social_cost_before + 1e-9
        assert drifted.period == 1

    def test_observed_mode_runs_the_query_simulation(self, scenario):
        loop = make_loop(scenario, strategy=SelfishStrategy(mode="observed"))
        record = loop.run_period()
        assert record.queries_routed > 0

    def test_exact_mode_skips_the_query_simulation(self, scenario):
        loop = make_loop(scenario)
        record = loop.run_period()
        assert record.queries_routed == 0
        assert "QueryMessage" not in loop.bus.snapshot()

    def test_observed_messages_accumulate_across_periods(self, scenario):
        loop = make_loop(scenario, strategy=SelfishStrategy(mode="observed"))
        loop.run_period()
        first = loop.bus.snapshot()
        loop.run_period()
        second = loop.bus.snapshot()
        assert second["QueryMessage"] == 2 * first["QueryMessage"]  # no drift: same traffic
        assert all(second[kind] >= count for kind, count in first.items())


class TestRun:
    def test_run_produces_one_record_per_period(self, scenario):
        loop = make_loop(scenario)
        records = loop.run(3)
        assert len(records) == 3
        assert loop.social_cost_trace() == [record.social_cost_after for record in records]

    def test_negative_periods_are_rejected(self, scenario):
        loop = make_loop(scenario)
        with pytest.raises(ValueError):
            loop.run(-1)

    def test_population_is_preserved_across_periods(self, scenario):
        loop = make_loop(scenario)
        loop.run(2)
        assert sorted(loop.configuration.peer_ids()) == scenario.peer_ids()


class TestScheduledDynamics:
    def test_loop_applies_a_bound_schedule_and_emits_drift_events(self, scenario):
        from repro.dynamics.schedule import DynamicsSchedule

        schedule = DynamicsSchedule.from_dict(
            {"model": "workload-full", "options": {"peer_fraction": 1.0}, "start": 1}
        ).bind(data=scenario, seed=3)
        loop = make_loop(scenario, schedule=schedule)
        events = []
        loop.hooks.on_drift_applied(events.append)
        records = loop.run(2)
        assert [event.period for event in events] == [1]
        assert events[0].report.model == "workload-full"
        assert records[1].social_cost_before > records[0].social_cost_after
