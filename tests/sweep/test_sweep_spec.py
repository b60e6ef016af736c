"""Tests for SweepSpec expansion, seed derivation and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, UnknownComponentError
from repro.sweep.spec import DEFAULT_RUNNER, SweepSpec, SweepTask, derive_seeds


class TestDeriveSeeds:
    def test_matches_numpy_seed_sequence_spawn(self):
        children = np.random.SeedSequence(42).spawn(4)
        expected = [int(child.generate_state(1, dtype=np.uint32)[0]) for child in children]
        assert derive_seeds(42, 4) == expected

    def test_deterministic_and_distinct(self):
        seeds = derive_seeds(7, 16)
        assert seeds == derive_seeds(7, 16)
        assert len(set(seeds)) == 16

    def test_different_base_seeds_give_different_streams(self):
        assert derive_seeds(7, 4) != derive_seeds(8, 4)

    def test_prefix_stability(self):
        # Growing the replication count keeps the existing seeds: spawn(n)
        # children are a prefix of spawn(m) children for n < m.
        assert derive_seeds(7, 8)[:3] == derive_seeds(7, 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            derive_seeds(7, -1)


class TestExpansion:
    def test_grid_is_the_cartesian_product_in_declared_order(self):
        spec = SweepSpec(
            scenarios=("same-category", "uniform"),
            initials=("singletons",),
            strategies=("selfish", "altruistic"),
            scale="quick",
        )
        tasks = spec.expand()
        assert len(tasks) == 4
        assert [task.index for task in tasks] == [0, 1, 2, 3]
        combos = [(task.config["scenario"], task.config["strategy"]) for task in tasks]
        # scenario is the outer axis, strategy the inner one
        assert combos == [
            ("same-category", "selfish"),
            ("same-category", "altruistic"),
            ("uniform", "selfish"),
            ("uniform", "altruistic"),
        ]
        assert all(task.config["scale"] == "quick" for task in tasks)

    def test_empty_axes_pin_session_defaults(self):
        tasks = SweepSpec().expand()
        assert len(tasks) == 1
        assert tasks[0].config["scenario"] == "same-category"
        assert tasks[0].config["initial"] == "singletons"
        assert tasks[0].config["strategy"] == "selfish"
        assert "theta" not in tasks[0].config  # theta default is scale-dependent
        assert tasks[0].runner == DEFAULT_RUNNER
        assert tasks[0].seed is None

    def test_overrides_reach_every_grid_task_but_lose_to_axes(self):
        spec = SweepSpec(
            strategies=("altruistic",),
            overrides={"alpha": 2.0, "strategy": "selfish", "initial": "random"},
        )
        (task,) = spec.expand()
        assert task.config["alpha"] == 2.0
        assert task.config["strategy"] == "altruistic"  # the axis wins
        assert task.config["initial"] == "random"  # the override survives an empty axis

    def test_explicit_seeds_are_applied_to_session_and_scenario(self):
        spec = SweepSpec(strategies=("selfish",), seeds=(3, 5))
        tasks = spec.expand()
        assert [task.seed for task in tasks] == [3, 5]
        for task in tasks:
            assert task.config["seed"] == task.seed
            assert task.config["scenario_overrides"]["seed"] == task.seed

    def test_an_explicit_scenario_seed_override_wins(self):
        spec = SweepSpec(
            overrides={"scenario_overrides": {"seed": 99}},
            seeds=(3,),
        )
        (task,) = spec.expand()
        assert task.config["seed"] == 3
        assert task.config["scenario_overrides"]["seed"] == 99

    def test_replications_derive_the_seed_stream(self):
        spec = SweepSpec(strategies=("selfish", "altruistic"), replications=3, base_seed=11)
        tasks = spec.expand()
        assert len(tasks) == 6
        expected = derive_seeds(11, 3)
        # seeds are the inner loop: replications of one configuration are adjacent
        assert [task.seed for task in tasks] == expected + expected
        assert [task.config["strategy"] for task in tasks] == ["selfish"] * 3 + ["altruistic"] * 3

    def test_seeds_and_replications_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            SweepSpec(seeds=(1, 2), replications=2)

    def test_explicit_tasks_ride_after_the_grid(self):
        spec = SweepSpec(
            strategies=("selfish",),
            tasks=(
                {"config": {"strategy": "altruistic"}, "runner": "maintain", "options": {"periods": 2}},
                {"strategy": "hybrid"},  # bare config mapping form
            ),
        )
        tasks = spec.expand()
        assert len(tasks) == 3
        assert tasks[0].config["strategy"] == "selfish"
        assert tasks[1].runner == "maintain"
        assert tasks[1].options == {"periods": 2}
        assert tasks[2].config["strategy"] == "hybrid"
        assert tasks[2].runner == DEFAULT_RUNNER

    def test_explicit_tasks_without_grid_axes_suppress_the_grid(self):
        spec = SweepSpec(tasks=({"strategy": "selfish"},))
        assert len(spec.expand()) == 1

    def test_spec_scale_and_overrides_reach_explicit_tasks(self):
        spec = SweepSpec(
            scale="quick",
            overrides={"alpha": 2.0},
            tasks=(
                {"strategy": "selfish"},
                {"config": {"strategy": "altruistic", "scale": "benchmark"}},
            ),
        )
        first, second = spec.expand()
        assert first.config["scale"] == "quick"
        assert first.config["alpha"] == 2.0
        assert second.config["scale"] == "benchmark"  # the task's own field wins
        assert second.config["alpha"] == 2.0

    def test_malformed_task_entries_are_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            SweepSpec(tasks=({"config": {}, "bogus": 1},)).expand()
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            SweepSpec(tasks=("not-a-mapping",)).expand()

    def test_bare_string_axis_is_rejected(self):
        with pytest.raises(ConfigurationError, match="bare string"):
            SweepSpec(strategies="selfish")


class TestSerialization:
    def test_round_trips_through_dict(self):
        spec = SweepSpec(
            scenarios=("same-category",),
            strategies=("selfish", "altruistic"),
            scale="quick",
            seeds=(7, 11),
            runner_options={"max_rounds": 5},
            tasks=({"strategy": "hybrid"},),
        )
        clone = SweepSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert [t.to_dict() for t in clone.expand()] == [t.to_dict() for t in spec.expand()]

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"scenarioz": ["same-category"]})

    def test_task_round_trips_through_dict(self):
        task = SweepTask(index=3, config={"strategy": "selfish"}, runner="maintain", seed=5)
        assert SweepTask.from_dict(task.to_dict()) == task


class TestValidation:
    def test_unregistered_strategy_fails_with_listing(self):
        spec = SweepSpec(strategies=("definitely-not-registered",))
        with pytest.raises(UnknownComponentError) as excinfo:
            spec.validate()
        message = str(excinfo.value)
        assert "definitely-not-registered" in message
        assert "selfish" in message  # the registry enumerates what IS available

    def test_unregistered_scenario_fails_with_listing(self):
        with pytest.raises(UnknownComponentError, match="same-category"):
            SweepSpec(scenarios=("atlantis",)).validate()

    def test_unregistered_theta_fails_with_listing(self):
        with pytest.raises(UnknownComponentError, match="linear"):
            SweepSpec(thetas=("cubic",)).validate()

    def test_unregistered_runner_fails_with_listing(self):
        with pytest.raises(UnknownComponentError, match="discover"):
            SweepSpec(runner="teleport").validate()

    def test_unknown_scale_fails(self):
        with pytest.raises(ConfigurationError, match="known presets"):
            SweepSpec(scale="galactic").validate()

    def test_valid_spec_returns_the_expanded_tasks(self):
        tasks = SweepSpec(strategies=("selfish",), seeds=(1, 2)).validate()
        assert [task.index for task in tasks] == [0, 1]

    @pytest.mark.parametrize(
        ("options", "named"),
        [({"num_event": 100}, "'num_event'"), ({"after": "bogus"}, "'bogus'")],
    )
    def test_traffic_runner_options_are_checked(self, options, named):
        spec = SweepSpec(scale="quick", runner="traffic", runner_options=options)
        with pytest.raises(ConfigurationError, match=named):
            spec.validate()

    def test_explicit_traffic_task_options_are_checked(self):
        task = {"config": {"scale": "quick"}, "runner": "traffic", "options": {"after": "rest"}}
        with pytest.raises(ConfigurationError, match="'rest'"):
            SweepSpec(tasks=(task,)).validate()

    @pytest.mark.parametrize(
        ("overrides", "named"),
        [
            (
                {"router": "broadcast", "router_options": {"k": 3}, "strategy_mode": "observed"},
                r"router 'broadcast': unexpected keys \['k'\]",
            ),
            ({"strategy_options": {"wieght": 3}}, r"'selfish': unexpected keys \['wieght'\]"),
            ({"theta_options": {"slop": 2}}, r"'linear': unexpected keys \['slop'\]"),
        ],
        ids=("router", "strategy", "theta"),
    )
    def test_component_options_are_bound_before_anything_runs(self, overrides, named):
        spec = SweepSpec(scale="quick", strategies=("selfish",), seeds=(7,), overrides=overrides)
        with pytest.raises(ConfigurationError, match=named):
            spec.validate()

    def test_each_distinct_options_mapping_is_bound_once(self, monkeypatch):
        from repro.registry import ComponentRegistry

        bound = []
        check = ComponentRegistry.check_options

        def counting(registry, name, *args, **kwargs):
            bound.append((registry.kind, name))
            return check(registry, name, *args, **kwargs)

        monkeypatch.setattr(ComponentRegistry, "check_options", counting)
        overrides = {
            "router": "probe-k",
            "router_options": {"k": 2},
            "theta_options": {"slope": 2.0},
        }
        strategies = ("selfish", "altruistic")
        spec = SweepSpec(scale="quick", strategies=strategies, seeds=(1, 2, 3), overrides=overrides)
        assert len(spec.validate()) == 6
        assert sorted(bound) == [("router", "probe-k"), ("theta function", "linear")]
        bound.clear()
        SweepSpec(scale="quick", strategies=("selfish",), seeds=(1, 2)).validate()
        assert bound == []

    def test_valid_traffic_spec_validates(self):
        options = {"after": "maintenance", "periods": 2, "num_events": 100, "workload": "zipf"}
        spec = SweepSpec(scale="quick", runner="traffic", runner_options=options, seeds=(3,))
        (task,) = spec.validate()
        assert task.runner == "traffic" and task.options == options


class TestExecutionPolicyFields:
    def test_retries_and_task_timeout_round_trip(self):
        spec = SweepSpec(strategies=("selfish",), retries=2, task_timeout=30.0)
        rebuilt = SweepSpec.from_dict(spec.to_dict())
        assert rebuilt.retries == 2
        assert rebuilt.task_timeout == 30.0

    def test_policy_fields_do_not_change_task_identity(self):
        from repro.sweep.store import task_hash

        plain = SweepSpec(strategies=("selfish",), seeds=(7,)).validate()[0]
        tolerant = SweepSpec(
            strategies=("selfish",), seeds=(7,), retries=3, task_timeout=5.0
        ).validate()[0]
        assert task_hash(tolerant) == task_hash(plain)

    def test_invalid_policy_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(retries=-1)
        with pytest.raises(ConfigurationError):
            SweepSpec(task_timeout=0.0)

    def test_spec_retries_drive_run_sweep(self):
        from repro.sweep import FaultPlan, FaultRule, run_sweep

        spec = SweepSpec(
            strategies=("selfish",),
            seeds=(7,),
            scale="quick",
            retries=1,
            overrides={
                "scenario_overrides": {
                    "num_peers": 12,
                    "num_categories": 3,
                    "documents_per_peer": 4,
                    "terms_per_document": 3,
                    "category_vocabulary_size": 15,
                    "queries_per_peer": 3,
                }
            },
        )
        plan = FaultPlan(
            rules=(FaultRule(fault="task-exception", index=0, attempts=(1,)),)
        )
        result = run_sweep(spec, faults=plan)
        assert not result.failures
        assert len(result.results) == 1
