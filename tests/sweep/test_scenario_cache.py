"""Tests for the per-worker scenario cache (copy-on-write for mutating runners)."""

from __future__ import annotations

import os

import pytest

from repro.session.config import SessionConfig
import repro.sweep.cache as cache_module
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cache import (
    ENV_FLAG,
    clear_scenario_cache,
    runner_mutates_scenario,
    scenario_cache_enabled,
    scenario_cache_info,
    scenario_data_for,
)
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


class TestMemoisation:
    def test_same_key_hits_the_cache(self):
        first = scenario_data_for(tiny_config(), mutates=False)
        second = scenario_data_for(tiny_config(), mutates=False)
        assert second is first
        info = scenario_cache_info()
        assert info == {"size": 1, "hits": 1, "misses": 1, "copies": 0}

    def test_scenario_aliases_share_an_entry(self):
        first = scenario_data_for(tiny_config(scenario="same-category"), mutates=False)
        second = scenario_data_for(tiny_config(scenario="same_category"), mutates=False)
        assert second is first

    def test_different_seeds_are_different_entries(self):
        overrides = dict(TINY_SCENARIO)
        overrides["seed"] = 99
        first = scenario_data_for(tiny_config(), mutates=False)
        second = scenario_data_for(
            tiny_config(scenario_overrides=overrides), mutates=False
        )
        assert second is not first
        assert scenario_cache_info()["size"] == 2

    def test_cached_build_equals_fresh_build(self):
        from repro.datasets.scenarios import build_scenario

        cached = scenario_data_for(tiny_config(), mutates=False)
        fresh = build_scenario(
            "same-category", tiny_config().experiment_config().scenario
        )
        assert cached.peer_ids() == fresh.peer_ids()
        for peer_id in cached.peer_ids():
            cached_peer = cached.network.peer(peer_id)
            fresh_peer = fresh.network.peer(peer_id)
            assert dict(cached_peer.workload.items()) == dict(fresh_peer.workload.items())


class TestCopyOnWrite:
    def test_mutating_access_returns_a_private_copy(self):
        shared = scenario_data_for(tiny_config(), mutates=False)
        private = scenario_data_for(tiny_config(), mutates=True)
        assert private is not shared
        assert private.network is not shared.network
        assert scenario_cache_info()["copies"] == 1

    def test_copy_does_not_carry_derived_model_caches(self):
        shared = scenario_data_for(tiny_config(), mutates=False)
        shared.network.recall_matrix()  # populate the shared caches
        private = scenario_data_for(tiny_config(), mutates=True)
        assert private.network._matrix is None
        assert private.network._recall_model is None

    def test_mutating_the_copy_leaves_the_pristine_entry_intact(self):
        private = scenario_data_for(tiny_config(), mutates=True)
        peer_id = private.peer_ids()[0]
        private.network.remove_peer(peer_id)
        shared = scenario_data_for(tiny_config(), mutates=False)
        assert peer_id in shared.network

    def test_runner_mutation_flags(self):
        assert runner_mutates_scenario(resolve_runner("maintain"))
        assert runner_mutates_scenario(resolve_runner("maintenance-point"))
        assert runner_mutates_scenario(resolve_runner("figure4-point"))
        assert not runner_mutates_scenario(resolve_runner("discover"))
        assert runner_mutates_scenario(object())  # undeclared runners are mutating


class TestEnvironmentSwitch:
    def test_flag_disables_the_cache(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "0")
        assert not scenario_cache_enabled()
        monkeypatch.setenv(ENV_FLAG, "off")
        assert not scenario_cache_enabled()
        monkeypatch.setenv(ENV_FLAG, "1")
        assert scenario_cache_enabled()
        monkeypatch.delenv(ENV_FLAG)
        assert scenario_cache_enabled()


class TestSweepParity:
    """Worker-count / cache-state independence of sweep results."""

    def maintenance_spec(self) -> SweepSpec:
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

    def test_mutating_runner_parity_across_workers_with_cache(self):
        spec = self.maintenance_spec()
        serial = run_sweep(spec, executor="serial")
        pooled = run_sweep(spec, executor={"name": "process-pool", "options": {"max_workers": 3}})
        assert [r.to_dict() for r in serial.results] == [
            r.to_dict() for r in pooled.results
        ]
        # In the serial run the three identical tasks shared one cache entry.
        info = scenario_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 2
        assert info["copies"] == 3

    def test_cache_on_equals_cache_off(self):
        spec = SweepSpec(
            strategies=("selfish", "altruistic"),
            scale="quick",
            overrides={"scenario_overrides": dict(TINY_SCENARIO)},
            seeds=(7, 11),
        )
        with_cache = run_sweep(spec, executor="serial")
        clear_scenario_cache()
        without_cache = run_sweep(spec, executor="serial", scenario_cache=False)
        assert [r.to_dict() for r in with_cache.results] == [
            r.to_dict() for r in without_cache.results
        ]
        assert scenario_cache_info()["misses"] == 0  # cache really was off

    def test_pool_with_the_cache_off_equals_serial_with_it_on(self):
        spec = two_world_spec()
        serial = run_sweep(spec, executor="serial")
        clear_scenario_cache()
        pooled = run_sweep(
            spec,
            executor={"name": "process-pool", "options": {"max_workers": 2}},
            scenario_cache=False,
        )
        assert [r.to_dict() for r in pooled.results] == [
            r.to_dict() for r in serial.results
        ]


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
        assert scenario_cache_info() == {"size": 0, "hits": 0, "misses": 0, "copies": 0}
