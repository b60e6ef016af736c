"""Tests for drift rules and dynamics schedules (repro.dynamics.schedule)."""

from __future__ import annotations

import json

import pytest

from repro.datasets.scenarios import category_configuration
from repro.dynamics.schedule import DriftRule, DynamicsSchedule, _derive_rng
from repro.errors import ConfigurationError
from tests.conftest import make_small_scenario


class TestDriftRule:
    def test_every_period_by_default(self):
        rule = DriftRule(model="none")
        assert [rule.invocation_index(p) for p in range(4)] == [0, 1, 2, 3]

    def test_start_and_every(self):
        rule = DriftRule(model="none", start=1, every=2)
        assert rule.invocation_index(0) is None
        assert rule.invocation_index(1) == 0
        assert rule.invocation_index(2) is None
        assert rule.invocation_index(3) == 1

    def test_one_shot(self):
        rule = DriftRule(model="none", start=2, times=1)
        assert [rule.invocation_index(p) for p in range(5)] == [None, None, 0, None, None]

    def test_ramp_overrides_one_option_per_invocation(self):
        rule = DriftRule(
            model="workload-full",
            options={"category": "cat01"},
            ramp={"option": "peer_fraction", "values": [0.0, 0.5, 1.0]},
        )
        assert rule.options_for(1) == {"category": "cat01", "peer_fraction": 0.5}
        # the grid is exhausted after its last value
        assert rule.invocation_index(2) == 2
        assert rule.invocation_index(3) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DriftRule(model="none", start=-1)
        with pytest.raises(ConfigurationError):
            DriftRule(model="none", every=0)
        with pytest.raises(ConfigurationError):
            DriftRule(model="none", times=0)
        with pytest.raises(ConfigurationError):
            DriftRule(model="none", ramp={"values": [1]})
        with pytest.raises(ConfigurationError):
            DriftRule(model="none", ramp={"option": "x", "values": []})

    def test_dict_round_trip(self):
        rule = DriftRule(
            model="workload-full",
            options={"peer_fraction": 0.4},
            start=1,
            every=2,
            times=3,
            ramp={"option": "peer_fraction", "values": [0.2, 0.4]},
        )
        restored = DriftRule.from_dict(json.loads(json.dumps(rule.to_dict())))
        assert restored == rule

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="cadence"):
            DriftRule.from_dict({"model": "none", "cadence": 2})
        with pytest.raises(ConfigurationError, match="model"):
            DriftRule.from_dict({"options": {}})


class TestScheduleConstruction:
    def test_single_rule_spec_round_trips(self):
        spec = {"model": "churn", "options": {"departures": 2}, "start": 1}
        schedule = DynamicsSchedule.from_dict(spec)
        assert schedule.to_dict() == spec

    def test_multi_rule_spec_round_trips(self):
        spec = {
            "rules": [
                {"model": "churn", "options": {"departures": 1}},
                {"model": "content-fraction", "options": {"fraction": 0.3}, "every": 2},
            ]
        }
        schedule = DynamicsSchedule.from_dict(spec)
        assert schedule.to_dict() == spec

    def test_from_any(self):
        schedule = DynamicsSchedule.from_dict({"model": "none", "options": {}})
        assert DynamicsSchedule.from_any(schedule) is schedule
        assert DynamicsSchedule.from_any({"model": "none"}).rules[0].model == "none"
        with pytest.raises(ConfigurationError):
            DynamicsSchedule.from_any(42)

    def test_empty_rules_rejected(self):
        with pytest.raises(ConfigurationError):
            DynamicsSchedule.from_dict({"rules": []})

    def test_validate_rejects_unknown_models_and_bad_options(self):
        with pytest.raises(Exception, match="drift model"):
            DynamicsSchedule.from_dict({"model": "quantum"}).validate()
        with pytest.raises(ConfigurationError):
            DynamicsSchedule.from_dict(
                {"model": "workload-full", "options": {"warp": 1}}
            ).validate()


class TestScheduleApplication:
    def _bound(self, spec, seed=7):
        data = make_small_scenario()
        configuration = category_configuration(data)
        schedule = DynamicsSchedule.from_dict(spec).bind(data=data, seed=seed)
        return data, configuration, schedule

    def test_silent_periods_produce_no_reports(self):
        data, configuration, schedule = self._bound(
            {"model": "workload-full", "options": {"peer_fraction": 0.5}, "start": 2}
        )
        assert schedule.apply_period(data.network, configuration, 0) == []
        assert schedule.apply_period(data.network, configuration, 1) == []
        reports = schedule.apply_period(data.network, configuration, 2)
        assert [report.model for report in reports] == ["workload-full"]
        assert reports[0].period == 2

    def test_ramp_walks_the_parameter_grid(self):
        data, configuration, schedule = self._bound(
            {
                "model": "workload-full",
                "ramp": {"option": "peer_fraction", "values": [0.0, 0.5, 1.0]},
            }
        )
        members = sorted(
            configuration.members(configuration.nonempty_clusters()[0]), key=repr
        )
        assert schedule.apply_period(data.network, configuration, 0) == []  # 0.0: noop
        half = schedule.apply_period(data.network, configuration, 1)
        assert half[0].num_peers == int(round(0.5 * len(members)))
        full = schedule.apply_period(data.network, configuration, 2)
        assert full[0].num_peers == len(members)
        assert schedule.apply_period(data.network, configuration, 3) == []  # exhausted

    def test_multiple_rules_apply_in_order(self):
        data, configuration, schedule = self._bound(
            {
                "rules": [
                    {"model": "workload-fraction", "options": {"fraction": 0.5}},
                    {"model": "churn", "options": {"departures": 1}},
                ]
            }
        )
        reports = schedule.apply_period(data.network, configuration, 0)
        assert [report.model for report in reports] == ["workload-fraction", "churn"]

    def test_same_seed_is_reproducible_and_seeds_differ_per_period(self):
        outcomes = []
        for _attempt in range(2):
            data, configuration, schedule = self._bound(
                {"model": "churn", "options": {"departures": 2}}, seed=13
            )
            first = schedule.apply_period(data.network, configuration, 0)
            second = schedule.apply_period(data.network, configuration, 1)
            outcomes.append((first[0].peer_ids, second[0].peer_ids))
        assert outcomes[0] == outcomes[1]  # same seed -> same drift
        first, second = outcomes[0]
        assert first != second  # periods draw from distinct streams


class TestDerivedStreams:
    def test_rng_is_a_pure_function_of_seed_period_rule(self):
        assert _derive_rng(7, 3, 0).random() == _derive_rng(7, 3, 0).random()
        assert _derive_rng(7, 3, 0).random() != _derive_rng(7, 4, 0).random()
        assert _derive_rng(7, 3, 0).random() != _derive_rng(7, 3, 1).random()
        assert _derive_rng(8, 3, 0).random() != _derive_rng(7, 3, 0).random()
