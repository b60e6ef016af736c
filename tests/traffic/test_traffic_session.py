"""Traffic through the session facade, the sweep engine and the CLI."""

from __future__ import annotations

import json

import pytest

from repro import SessionConfig, Simulation
from repro.cli import main
from repro.errors import ConfigurationError, UnknownComponentError
from repro.session.config import TRAFFIC_KEYS
from repro.session.result import KIND_TRAFFIC
from repro.sweep import SweepSpec, run_sweep
from repro.traffic.simulator import DEFAULT_BATCH_SIZE

#: Scenario small enough that one task runs in a few milliseconds.
TINY_SCENARIO = {
    "num_peers": 12,
    "num_categories": 3,
    "documents_per_peer": 4,
    "terms_per_document": 3,
    "category_vocabulary_size": 15,
    "queries_per_peer": 3,
}

QUICK = SessionConfig(
    scenario="same_category",
    strategy="selfish",
    scale="quick",
    scenario_overrides=dict(TINY_SCENARIO),
)


class TestRunTraffic:
    def test_run_traffic_returns_a_traffic_kind_result(self):
        simulation = Simulation(QUICK)
        result = simulation.run_traffic(num_events=500, seed=3)
        assert result.kind == KIND_TRAFFIC
        assert result.queries_routed == 500
        assert result.extras["traffic_events"] == 500
        assert "latency_p50" in result.extras
        assert "recall_mean" in result.extras
        assert result.extras["traffic"]["events"] == 500
        assert simulation.last_traffic_report is not None
        assert simulation.last_traffic_report.events == 500

    def test_config_traffic_bag_supplies_defaults(self):
        config = QUICK.with_options(
            traffic={"workload": "zipf", "num_events": 200, "seed": 5}
        )
        simulation = Simulation(config)
        result = simulation.run_traffic()
        assert result.extras["traffic"]["workload"] == "zipf"
        assert result.queries_routed == 200

    def test_overrides_shadow_the_config_bag(self):
        config = QUICK.with_options(traffic={"num_events": 200})
        result = Simulation(config).run_traffic(num_events=50)
        assert result.queries_routed == 50

    def test_unknown_setting_is_rejected_with_the_valid_keys(self):
        with pytest.raises(ConfigurationError, match="unknown traffic settings"):
            Simulation(QUICK).run_traffic(warp_factor=9)

    def test_num_queries_is_not_an_alias(self):
        with pytest.raises(ConfigurationError, match=r"\['num_queries'\].*'num_events'"):
            Simulation(QUICK).run_traffic(num_queries=64)

    def test_keep_log_is_not_a_traffic_setting(self):
        # The simulator keeps no event log, so the old switch fails by name.
        with pytest.raises(ConfigurationError, match=r"\['keep_log'\]"):
            Simulation(QUICK).run_traffic(num_events=10, keep_log=False)

    def test_batch_size_defaults_to_the_simulator_default(self):
        batches = []
        simulation = Simulation(QUICK)
        simulation.hooks.on_query_routed(batches.append)
        result = simulation.run_traffic(num_events=DEFAULT_BATCH_SIZE + 1, seed=4)
        assert result.extras["traffic"]["batches"] == 2
        assert [event.events for event in batches] == [DEFAULT_BATCH_SIZE, 1]


class TestTrafficSettingsAtConstruction:
    """A bad ``traffic`` key fails where the config is built, naming the key."""

    BAD = {"num_event": 100}

    def test_constructor_names_the_bad_key(self):
        with pytest.raises(ConfigurationError, match=r"unknown traffic settings \['num_event'\]"):
            SessionConfig(scale="quick", traffic=self.BAD)

    def test_from_dict_names_the_bad_key(self):
        with pytest.raises(ConfigurationError, match=r"\['num_event'\]"):
            SessionConfig.from_dict({"scale": "quick", "traffic": self.BAD})

    def test_sweep_validation_names_the_bad_key(self):
        spec = SweepSpec(scale="quick", runner="traffic", overrides={"traffic": self.BAD})
        with pytest.raises(ConfigurationError, match=r"\['num_event'\]"):
            spec.validate()

    def test_every_run_traffic_setting_is_accepted(self):
        settings = dict.fromkeys(TRAFFIC_KEYS)
        assert SessionConfig(scale="quick", traffic=settings).traffic == settings

    def test_same_seed_reproduces_the_report(self):
        first = Simulation(QUICK).run_traffic(num_events=300, seed=8)
        second = Simulation(QUICK).run_traffic(num_events=300, seed=8)
        assert first.extras["traffic"] == second.extras["traffic"]

    def test_traffic_config_round_trips_through_json(self):
        config = QUICK.with_options(traffic={"workload": "flash-crowd"})
        rebuilt = SessionConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt.traffic == {"workload": "flash-crowd"}
        # None stays out of the serialised form entirely.
        assert "traffic" not in QUICK.to_dict()


class TestSessionHooks:
    def test_config_traffic_settings_and_summary_hook(self):
        summaries = []
        simulation = Simulation(
            QUICK.with_options(traffic={"workload": "uniform", "num_events": 150, "seed": 2})
        )
        simulation.hooks.on_traffic_summary(summaries.append)
        result = simulation.run_traffic()
        assert result.queries_routed == 150
        assert len(summaries) == 1
        assert summaries[0].report.events == 150

    def test_on_query_routed_streams_batches(self):
        batches = []
        simulation = Simulation(QUICK)
        simulation.hooks.on_query_routed(batches.append)
        simulation.run_traffic(num_events=300, batch_size=64, seed=1)
        assert sum(event.events for event in batches) == 300


def traffic_spec(**overrides) -> SweepSpec:
    values = {
        "scenarios": ("same_category",),
        "strategies": ("selfish",),
        "scale": "quick",
        "overrides": {"scenario_overrides": dict(TINY_SCENARIO)},
        "seeds": (7,),
        "runner": "traffic",
        "runner_options": {"after": "discover", "num_events": 200},
        "workloads": ("uniform", "zipf"),
    }
    values.update(overrides)
    return SweepSpec(**values)


class TestTrafficSweep:
    def test_workloads_expand_as_a_grid_axis(self):
        tasks = traffic_spec().expand()
        assert len(tasks) == 2
        assert [task.config["traffic"]["workload"] for task in tasks] == [
            "uniform",
            "zipf",
        ]

    def test_workload_mappings_merge_into_the_traffic_bag(self):
        tasks = traffic_spec(
            workloads=({"workload": "zipf", "workload_options": {"exponent": 2.0}},)
        ).expand()
        assert tasks[0].config["traffic"]["workload_options"] == {"exponent": 2.0}

    def test_unknown_workload_is_rejected_at_validation(self):
        with pytest.raises(UnknownComponentError, match="tsunami"):
            traffic_spec(workloads=("tsunami",)).validate()

    def test_spec_round_trips_through_dict(self):
        spec = traffic_spec()
        assert SweepSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_traffic_metrics_are_byte_identical_for_any_worker_count(self):
        spec = traffic_spec()
        serial = run_sweep(spec, executor="serial")
        pooled = run_sweep(
            spec, executor={"name": "process-pool", "options": {"max_workers": 2}}
        )
        assert [r.to_dict() for r in serial.results] == [
            r.to_dict() for r in pooled.results
        ]
        # The traffic scalars are usable directly as sweep metrics.
        assert len(serial.metric_values("latency_p95")) == 2
        assert all(value > 0 for value in serial.metric_values("qps"))

    def test_runner_grafts_the_shaping_phase_metrics(self):
        result = run_sweep(traffic_spec(workloads=("uniform",)), executor="serial").results[0]
        assert result.kind == KIND_TRAFFIC
        assert result.rounds > 0  # from the discovery phase
        assert result.extras["traffic_events"] == 200

    def test_summary_groups_keep_workload_variants_apart(self):
        sweep = run_sweep(traffic_spec(), executor="serial")
        groups = sweep.summarize(metrics=("recall_mean",))
        assert len(groups) == 2  # one per workload grid point

    def test_unknown_after_phase_is_rejected(self):
        with pytest.raises(ConfigurationError, match="phase"):
            run_sweep(
                traffic_spec(
                    workloads=("uniform",),
                    runner_options={"after": "tea-break"},
                ),
                executor="serial",
            )

    def test_after_phase_accepts_registry_aliases(self):
        # "discovery" is a registered alias of the "discover" runner; the
        # phase dispatch resolves through the runner registry, so both
        # spellings produce byte-identical results.
        canonical = run_sweep(traffic_spec(workloads=("uniform",))).results[0]
        aliased = run_sweep(
            traffic_spec(
                workloads=("uniform",),
                runner_options={"after": "discovery", "num_events": 200},
            )
        ).results[0]
        assert aliased.to_dict() == canonical.to_dict()


class TestCli:
    def test_traffic_command_prints_the_distribution_table(self, capsys):
        assert (
            main(
                [
                    "traffic",
                    "--scale",
                    "quick",
                    "--num-events",
                    "2000",
                    "--workload",
                    "zipf",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "latency_ms" in output
        assert "recall" in output
        assert "zipf" in output

    def test_traffic_command_with_probe_router_and_discovery(self, capsys):
        assert (
            main(
                [
                    "traffic",
                    "--scale",
                    "quick",
                    "--after",
                    "discover",
                    "--router",
                    "probe-k",
                    "--router-options",
                    '{"k": 2}',
                    "--num-events",
                    "1000",
                ]
            )
            == 0
        )
        assert "ProbeKRouter" in capsys.readouterr().out

    def test_sweep_command_accepts_workload_axes_and_metrics(self, capsys, tmp_path):
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "quick",
                    "--scenario",
                    "same-category",
                    "--strategy",
                    "selfish",
                    "--seeds",
                    "7",
                    "--runner",
                    "traffic",
                    "--runner-options",
                    '{"after": "none", "num_events": 500}',
                    "--workload",
                    "uniform",
                    "--workload",
                    '{"workload": "zipf", "workload_options": {"exponent": 2.0}}',
                    "--metrics",
                    "recall_mean,latency_p95",
                    "--output",
                    str(tmp_path / "sweep.jsonl"),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "recall_mean" in output
        assert "latency_p95" in output
        assert (tmp_path / "sweep.jsonl").exists()
