"""Tests for :class:`repro.session.config.SessionConfig`."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.session import SessionConfig


class TestDefaultsAndPresets:
    def test_defaults_resolve_to_paper_scale(self):
        config = SessionConfig()
        assert config.experiment_config() == ExperimentConfig.paper()

    def test_scale_preset_is_resolved(self):
        config = SessionConfig(scale="quick")
        assert config.experiment_config() == ExperimentConfig.quick()

    def test_unknown_scale_lists_presets(self):
        with pytest.raises(ConfigurationError) as excinfo:
            SessionConfig(scale="galactic").experiment_config()
        message = str(excinfo.value)
        assert "quick" in message and "benchmark" in message and "paper" in message

    def test_explicit_fields_override_the_preset(self):
        config = SessionConfig(scale="quick", alpha=2.0, max_rounds=17, theta="constant")
        resolved = config.experiment_config()
        assert resolved.alpha == 2.0
        assert resolved.max_rounds == 17
        assert resolved.theta_name == "constant"
        # unset fields keep the preset's values
        assert resolved.scenario == ExperimentConfig.quick().scenario

    def test_scenario_overrides_are_applied(self):
        config = SessionConfig(scale="quick", scenario_overrides={"uniform_workload": True})
        assert config.experiment_config().scenario.uniform_workload is True


class TestConstructors:
    def test_from_experiment_config_wraps_the_base(self):
        base = ExperimentConfig.quick()
        config = SessionConfig.from_experiment_config(base, strategy="altruistic")
        assert config.strategy == "altruistic"
        assert config.experiment_config() == base

    def test_from_experiment_config_rejects_other_types(self):
        with pytest.raises(ConfigurationError):
            SessionConfig.from_experiment_config({"alpha": 1.0})

    def test_from_dict_round_trip(self):
        config = SessionConfig(scenario="same_category", strategy="selfish", scale="quick")
        restored = SessionConfig.from_dict(config.to_dict())
        assert restored == config

    def test_from_dict_round_trip_with_base(self):
        config = SessionConfig.from_experiment_config(ExperimentConfig.quick())
        payload = json.loads(json.dumps(config.to_dict()))  # via real JSON
        restored = SessionConfig.from_dict(payload)
        assert restored.experiment_config() == ExperimentConfig.quick()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError) as excinfo:
            SessionConfig.from_dict({"strategy": "selfish", "velocity": 3})
        assert "velocity" in str(excinfo.value)

    @pytest.mark.parametrize(
        ("build", "level", "valid"),
        [
            (
                lambda: SessionConfig(scale="quick", scenario_overrides={"bogus": 1}),
                "scenario_overrides",
                "num_peers",
            ),
            (
                lambda: SessionConfig.from_dict({"scenario_overrides": {"bogus": 1}}),
                "scenario_overrides",
                "num_peers",
            ),
            (
                lambda: SessionConfig().with_options(scenario_overrides={"bogus": 1}),
                "scenario_overrides",
                "num_peers",
            ),
            (lambda: SessionConfig.from_dict({"base": {"bogus": 1}}), "base", "theta_name"),
            (
                lambda: SessionConfig.from_dict({"base": {"scenario": {"bogus": 1}}}),
                "base.scenario",
                "num_peers",
            ),
        ],
        ids=["constructor", "from_dict", "with_options", "base", "base.scenario"],
    )
    def test_nested_unknown_keys_are_named(self, build, level, valid):
        with pytest.raises(ConfigurationError) as excinfo:
            build()
        message = str(excinfo.value)
        assert f"unknown {level} keys ['bogus']" in message
        assert "valid keys:" in message and valid in message

    def test_nested_known_keys_pass(self):
        base = {"alpha": 2.0, "scenario": {"num_peers": 12, "seed": 3}}
        config = SessionConfig.from_dict(
            {"base": base, "scenario_overrides": {"num_peers": 16}}
        )
        resolved = config.experiment_config()
        assert (resolved.alpha, resolved.scenario.num_peers, resolved.scenario.seed) == (
            2.0,
            16,
            3,
        )

    def test_from_any_accepts_mapping_and_none(self):
        assert SessionConfig.from_any(None) == SessionConfig()
        assert SessionConfig.from_any({"strategy": "hybrid"}).strategy == "hybrid"

    def test_from_any_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            SessionConfig.from_any(42)

    def test_with_options_replaces_fields(self):
        config = SessionConfig().with_options(strategy="static", scale="quick")
        assert config.strategy == "static"
        assert config.scale == "quick"

    def test_with_options_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            SessionConfig().with_options(velocity=3)

    def test_to_dict_is_json_serialisable(self):
        config = SessionConfig(scale="quick", theta_options={"slope": 2.0})
        json.dumps(config.to_dict())


class TestDynamicsField:
    SPEC = {
        "model": "workload-full",
        "options": {"peer_fraction": 0.4},
        "start": 1,
        "ramp": {"option": "peer_fraction", "values": [0.2, 0.4]},
    }

    def test_dynamics_round_trips_through_json(self):
        config = SessionConfig(scale="quick", dynamics=self.SPEC)
        payload = json.loads(json.dumps(config.to_dict()))  # via real JSON
        restored = SessionConfig.from_dict(payload)
        assert restored == config
        assert restored.dynamics == self.SPEC

    def test_dynamics_defaults_to_none(self):
        config = SessionConfig()
        assert config.dynamics is None
        assert SessionConfig.from_dict(config.to_dict()).dynamics is None


class TestProtocolSettingsValidation:
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("enforce_locks", "no"),
            ("allow_cluster_creation", 1),
            ("restrict_to_nonempty", None),
            ("gain_threshold", "0.01"),
            ("gain_threshold", -0.1),
            ("gain_threshold", float("nan")),
            ("gain_threshold", True),
            ("alpha", float("nan")),
            ("alpha", float("inf")),
            ("alpha", -1),
            ("alpha", "1"),
            ("maintenance_gain_threshold", float("inf")),
            ("creation_cost_increase", None),
            ("creation_cost_increase", -1),
            ("max_rounds", 0),
            ("max_rounds", 2.5),
            ("max_rounds", True),
            ("strategy_mode", "telepathic"),
        ],
    )
    def test_bad_values_are_named(self, field, value):
        with pytest.raises(ConfigurationError) as raised:
            SessionConfig.from_dict({field: value})
        message = str(raised.value)
        assert field in message and repr(value) in message and "expected" in message
        with pytest.raises(ConfigurationError):
            SessionConfig().with_options(**{field: value})

    def test_good_values_pass(self):
        config = SessionConfig(
            gain_threshold=0,
            maintenance_gain_threshold=0.5,
            creation_cost_increase=0.05,
            max_rounds=1,
            enforce_locks=False,
            strategy_mode="observed",
            alpha=0,
        )
        assert SessionConfig.from_dict(config.to_dict()) == config

    def test_kernel_fields_are_unknown_keys(self):
        # The population picks the kernel's representation; no config field does.
        for key, value in (("kernel_backend", "labels"), ("kernel_dtype", "float32")):
            expected = f"unknown session config keys \\['{key}'\\]"
            with pytest.raises(ConfigurationError, match=expected):
                SessionConfig.from_dict({key: value})

    def test_numpy_numbers_pass(self):
        import numpy as np

        config = SessionConfig(gain_threshold=np.float64(0.01), max_rounds=np.int64(5))
        assert config.gain_threshold == 0.01 and config.max_rounds == 5

    def test_router_options_without_a_router_are_refused(self):
        # Without a router the session observes through broadcast and would
        # drop the options without a word.
        with pytest.raises(ConfigurationError, match=r"router_options=\{'k': 3\}.*router=None"):
            SessionConfig(
                scale="quick", router_options={"k": 3}, strategy_mode="observed", initial="category"
            )
        assert SessionConfig(router="probe-k", router_options={"k": 3}).router_options == {"k": 3}
