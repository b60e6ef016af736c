"""Tests for the per-worker scenario memo: shared with non-mutating runners, never copied."""

from __future__ import annotations

import os

import pytest

from repro.session.config import SessionConfig
from repro.session.simulation import Simulation
import repro.sweep.cache as cache_module
import repro.sweep.executors as executors_module
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cache import (
    clear_scenario_cache,
    runner_mutates_scenario,
    scenario_cache_info,
    scenario_data_for,
)
from repro.sweep.executors import execute_task
from repro.sweep.runners import resolve_runner

TINY_SCENARIO = {
    "num_peers": 12,
    "num_categories": 3,
    "documents_per_peer": 4,
    "terms_per_document": 3,
    "category_vocabulary_size": 15,
    "queries_per_peer": 3,
}


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_scenario_cache()
    yield
    clear_scenario_cache()


def two_world_spec(**overrides) -> SweepSpec:
    """Selfish/altruistic x singletons/random at seeds 7 and 11: 8 tasks, 2 worlds."""
    values = {
        "strategies": ("selfish", "altruistic"),
        "initials": ("singletons", "random"),
        "scale": "quick",
        "overrides": {"scenario_overrides": dict(TINY_SCENARIO)},
        "seeds": (7, 11),
    }
    values.update(overrides)
    return SweepSpec(**values)


def tiny_config(**overrides) -> SessionConfig:
    values = {"scale": "quick", "scenario_overrides": dict(TINY_SCENARIO)}
    values.update(overrides)
    return SessionConfig(**values)


def fresh_results(spec: SweepSpec):
    """Each task of *spec* run on a scenario built for it alone, with no memo."""
    results = []
    for task in spec.expand():
        simulation = Simulation.from_config(task.session_config())
        result = resolve_runner(task.runner)(simulation, dict(task.options))
        result.protocol_result = None
        results.append(result.to_dict())
    return results


def maintenance_spec() -> SweepSpec:
    """Three identical ``maintenance-point`` tasks (a scenario-mutating runner)."""
    task = {
        "config": {
            "scale": "quick",
            "initial": "category",
            "scenario_overrides": dict(TINY_SCENARIO),
        },
        "runner": "maintenance-point",
        "options": {
            "update_target": "workload",
            "update_kind": "updated-peers",
            "fraction": 0.5,
        },
    }
    return SweepSpec(tasks=(task, task, task))


class TestMemoisation:
    def test_same_key_hits_the_cache(self):
        first = scenario_data_for(tiny_config())
        second = scenario_data_for(tiny_config())
        assert second is first
        assert scenario_cache_info() == {"size": 1, "hits": 1, "misses": 1}

    def test_scenario_aliases_share_an_entry(self):
        first = scenario_data_for(tiny_config(scenario="same-category"))
        second = scenario_data_for(tiny_config(scenario="same_category"))
        assert second is first

    def test_different_seeds_are_different_entries(self):
        overrides = dict(TINY_SCENARIO)
        overrides["seed"] = 99
        first = scenario_data_for(tiny_config())
        second = scenario_data_for(tiny_config(scenario_overrides=overrides))
        assert second is not first
        assert scenario_cache_info()["size"] == 2

    def test_cached_build_equals_fresh_build(self):
        from repro.datasets.scenarios import build_scenario

        cached = scenario_data_for(tiny_config())
        fresh = build_scenario(
            "same-category", tiny_config().experiment_config().scenario
        )
        assert cached.peer_ids() == fresh.peer_ids()
        for peer_id in cached.peer_ids():
            cached_peer = cached.network.peer(peer_id)
            fresh_peer = fresh.network.peer(peer_id)
            assert dict(cached_peer.workload.items()) == dict(fresh_peer.workload.items())


class TestSharing:
    """The memo's instance goes to non-mutating runners only; nothing is copied."""

    @pytest.fixture
    def received(self, monkeypatch):
        """The ``data`` each executed task's simulation was built with, in order."""
        seen = []

        class RecordingSimulation(Simulation):
            def __init__(self, config=None, *, data=None, **overrides):
                seen.append(data)
                super().__init__(config, data=data, **overrides)

        monkeypatch.setattr(executors_module, "Simulation", RecordingSimulation)
        return seen

    @staticmethod
    def task(runner, options=None, **config):
        entry = {"config": tiny_config(**config).to_dict(), "runner": runner, "options": options or {}}
        return SweepSpec(tasks=(entry,)).expand()[0]

    def test_a_discovery_task_shares_the_cached_instance(self, received):
        shared = scenario_data_for(tiny_config())
        execute_task(self.task("discover"))
        assert received == [shared]
        assert received[0] is shared

    @pytest.mark.parametrize(
        "runner, options, config",
        [
            ("maintain", {"periods": 1}, {"initial": "category"}),
            (
                "maintenance-point",
                {"update_target": "workload", "update_kind": "updated-peers", "fraction": 0.5},
                {"initial": "category"},
            ),
            ("figure4-point", {"fraction": 0.5}, {"initial": "category"}),
            ("traffic", {"num_events": 100}, {}),
        ],
    )
    def test_a_mutating_task_never_receives_the_cached_instance(
        self, received, runner, options, config
    ):
        shared = scenario_data_for(tiny_config(**config))
        peers = list(shared.peer_ids())
        execute_task(self.task(runner, options, **config))
        assert received == [None]
        assert scenario_cache_info() == {"size": 1, "hits": 0, "misses": 1}
        assert shared.peer_ids() == peers

    def test_runner_mutation_flags(self):
        assert runner_mutates_scenario(resolve_runner("maintain"))
        assert runner_mutates_scenario(resolve_runner("maintenance-point"))
        assert runner_mutates_scenario(resolve_runner("figure4-point"))
        assert runner_mutates_scenario(resolve_runner("traffic"))
        assert not runner_mutates_scenario(resolve_runner("discover"))
        assert runner_mutates_scenario(object())  # undeclared runners are mutating


class TestSweepParity:
    """Sweep results equal runs built without the memo, for any worker count."""

    def test_mutating_runner_sweeps_equal_fresh_builds(self):
        spec = maintenance_spec()
        serial = run_sweep(spec, executor="serial")
        pooled = run_sweep(spec, executor={"name": "process-pool", "options": {"max_workers": 3}})
        fresh = fresh_results(spec)
        assert [r.to_dict() for r in serial.results] == fresh
        assert [r.to_dict() for r in pooled.results] == fresh
        # No mutating task went through the memo.
        assert scenario_cache_info() == {"size": 0, "hits": 0, "misses": 0}

    def test_a_shared_discovery_sweep_equals_fresh_builds(self):
        spec = SweepSpec(
            strategies=("selfish", "altruistic"),
            scale="quick",
            overrides={"scenario_overrides": dict(TINY_SCENARIO)},
            seeds=(7, 11),
        )
        shared = run_sweep(spec, executor="serial")
        assert scenario_cache_info()["hits"] == 2  # the grid siblings shared
        assert [r.to_dict() for r in shared.results] == fresh_results(spec)

    def test_a_pool_sweep_equals_fresh_builds(self):
        spec = two_world_spec()
        pooled = run_sweep(
            spec, executor={"name": "process-pool", "options": {"max_workers": 2}}
        )
        assert [r.to_dict() for r in pooled.results] == fresh_results(spec)


class TestSharingSemantics:
    def test_grid_siblings_share_but_replications_do_not(self):
        """Same-seed grid combinations hit one entry; replication seeds are distinct keys."""
        spec = SweepSpec(
            strategies=("selfish", "altruistic"),
            scale="quick",
            overrides={"scenario_overrides": dict(TINY_SCENARIO)},
            replications=2,
        )
        run_sweep(spec, executor="serial")
        info = scenario_cache_info()
        # 2 strategies x 2 replication seeds = 4 tasks over 2 distinct worlds.
        assert info["misses"] == 2
        assert info["hits"] == 2

    def test_a_pool_sweep_builds_no_scenario_in_the_coordinator(self):
        spec = SweepSpec(
            strategies=("selfish", "altruistic"),
            scale="quick",
            overrides={"scenario_overrides": dict(TINY_SCENARIO)},
            seeds=(7, 11),
        )
        result = run_sweep(
            spec, executor={"name": "process-pool", "options": {"max_workers": 2}}
        )
        assert len(result) == 4
        assert scenario_cache_info()["size"] == 0

    def test_pool_workers_build_each_world_at_most_once(self, monkeypatch, tmp_path):
        # Pool workers are forked, so they inherit this logging build.
        log = tmp_path / "builds.log"
        real_build = cache_module.build_scenario

        def logging_build(name, config):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {name} {config.seed}\n")
            return real_build(name, config)

        monkeypatch.setattr(cache_module, "build_scenario", logging_build)
        spec = two_world_spec()
        result = run_sweep(
            spec, executor={"name": "process-pool", "options": {"max_workers": 2}}
        )
        assert len(result) == 8
        builds = log.read_text().splitlines()
        assert len(builds) == len(set(builds))  # one build per world per worker
        assert len({line.split(" ", 1)[1] for line in builds}) == 2
        assert str(os.getpid()) not in {line.split(" ", 1)[0] for line in builds}

    def test_a_distributed_sweep_builds_no_scenario_in_the_coordinator(self, tmp_path):
        result = run_sweep(
            two_world_spec(seeds=(7,)),
            executor={"name": "distributed", "options": {"workers": 1, "poll_interval": 0.02}},
            store=str(tmp_path / "store"),
        )
        assert len(result) == 4
        assert scenario_cache_info()["size"] == 0

    def test_a_rerun_over_a_store_rebuilds_its_worlds(self, tmp_path):
        # The store holds results only: with resume off, every world is
        # built again in this process.
        spec = two_world_spec()
        store = str(tmp_path / "store")
        first = run_sweep(spec, executor="serial", store=store)
        clear_scenario_cache()
        rerun = run_sweep(spec, executor="serial", store=store, resume=False)
        assert rerun.executed == 8
        assert scenario_cache_info()["misses"] == 2
        assert [r.to_dict() for r in rerun.results] == [r.to_dict() for r in first.results]

    def test_a_resumed_sweep_builds_no_world(self, tmp_path):
        spec = two_world_spec()
        store = str(tmp_path / "store")
        run_sweep(spec, executor="serial", store=store)
        clear_scenario_cache()
        resumed = run_sweep(spec, executor="serial", store=store)
        assert resumed.loaded == 8 and resumed.executed == 0
        assert scenario_cache_info() == {"size": 0, "hits": 0, "misses": 0}
