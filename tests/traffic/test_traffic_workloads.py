"""Tests for the registered query-arrival workload generators."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.core.documents import Document
from repro.core.queries import Query
from repro.core.recall_matrix import WeightedRecallMatrix
from repro.datasets.scenarios import (
    SCENARIO_DIFFERENT_CATEGORY,
    SCENARIO_SAME_CATEGORY,
    SCENARIO_UNIFORM,
    build_scenario,
    category_configuration,
)
from repro.dynamics.models import build_drift_model
from repro.errors import ConfigurationError, UnknownComponentError
from repro.experiments.config import ExperimentConfig
from repro.peers.peer import Peer
from repro.traffic.events import merge_streams
from repro.traffic.workloads import (
    FlashCrowdWorkload,
    ReplayWorkload,
    UniformWorkload,
    WorkloadContext,
    ZipfWorkload,
    build_workload,
)
from tests.observation_oracle import workload_table


def make_context(network, *, num_events=500, horizon=1.0, seed=3):
    return WorkloadContext.from_network(
        network, num_events=num_events, horizon=horizon, seed=seed
    )


class TestWorkloadContext:
    def test_counts_mirror_the_recorded_workloads(self, tiny_network):
        context = make_context(tiny_network)
        assert context.peers == tiny_network.peer_ids()
        assert context.counts.shape == (3, len(context.queries))
        workloads = tiny_network.workloads()
        for row, peer_id in enumerate(context.peers):
            assert int(context.counts[row].sum()) == sum(
                count for _query, count in workloads[peer_id].items()
            )

    def test_every_tiny_peer_is_an_issuer(self, tiny_network):
        context = make_context(tiny_network)
        assert context.issuing_rows().tolist() == [0, 1, 2]

    def test_negative_num_events_rejected(self, tiny_network):
        with pytest.raises(ConfigurationError, match="num_events"):
            make_context(tiny_network, num_events=-1)

    def test_nonpositive_horizon_rejected(self, tiny_network):
        with pytest.raises(ConfigurationError, match="horizon"):
            make_context(tiny_network, horizon=0.0)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_non_finite_horizon_rejected(self, tiny_network, horizon):
        # Event times over such a horizon would not be finite.
        with pytest.raises(ConfigurationError, match="horizon"):
            make_context(tiny_network, horizon=horizon)

    def test_uniform_times_are_sorted_within_the_window(self, tiny_network):
        context = make_context(tiny_network)
        times = context.uniform_times(100, 0.25, 0.5)
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0.25
        assert times.max() < 0.75


class TestDeterminism:
    @pytest.mark.parametrize(
        "generator_factory",
        [UniformWorkload, ZipfWorkload, FlashCrowdWorkload, ReplayWorkload],
    )
    def test_same_seed_means_identical_streams(self, tiny_network, generator_factory):
        first = generator_factory().streams(make_context(tiny_network, seed=11))
        second = generator_factory().streams(make_context(tiny_network, seed=11))
        assert len(first) == len(second)
        for left, right in zip(first, second):
            np.testing.assert_array_equal(left.times, right.times)
            np.testing.assert_array_equal(left.issuers, right.issuers)
            np.testing.assert_array_equal(left.queries, right.queries)

    def test_different_seeds_differ(self, tiny_network):
        first = UniformWorkload().streams(make_context(tiny_network, seed=1))[0]
        second = UniformWorkload().streams(make_context(tiny_network, seed=2))[0]
        assert not np.array_equal(first.times, second.times)


class TestUniformWorkload:
    def test_emits_the_requested_event_count(self, tiny_network):
        (stream,) = UniformWorkload().streams(make_context(tiny_network, num_events=200))
        assert len(stream) == 200
        assert stream.label == "uniform"

    def test_issuers_only_pose_their_own_queries(self, tiny_network):
        context = make_context(tiny_network, num_events=300)
        (stream,) = UniformWorkload().streams(context)
        # Every sampled (issuer, query) pair exists in the recorded workloads.
        assert np.all(context.counts[stream.issuers, stream.queries] > 0)


class TestZipfWorkload:
    def test_exponent_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="exponent"):
            ZipfWorkload(exponent=0.0)

    def test_strong_skew_favours_the_most_demanding_peer(self, tiny_network):
        context = make_context(tiny_network, num_events=400, seed=7)
        (stream,) = ZipfWorkload(exponent=3.0).streams(context)
        counts = np.bincount(stream.issuers, minlength=3)
        # alice (row 0) has the largest local workload, so rank 1.
        assert counts[0] == counts.max()
        assert counts[0] > counts[1] + counts[2]


class TestFlashCrowdWorkload:
    def test_burst_parameters_are_validated(self):
        with pytest.raises(ConfigurationError, match="burst_fraction"):
            FlashCrowdWorkload(burst_fraction=1.5)
        with pytest.raises(ConfigurationError, match="burst window"):
            FlashCrowdWorkload(burst_duration=0.0)
        with pytest.raises(ConfigurationError, match="hot_queries"):
            FlashCrowdWorkload(hot_queries=0)

    def test_emits_base_and_burst_streams(self, tiny_network):
        context = make_context(tiny_network, num_events=200)
        streams = FlashCrowdWorkload(
            burst_fraction=0.4, burst_start=0.4, burst_duration=0.1
        ).streams(context)
        assert [stream.label for stream in streams] == ["base", "burst"]
        base, burst = streams
        assert len(base) == 120
        assert len(burst) == 80

    def test_burst_lands_in_the_window_on_the_hot_queries(self, tiny_network):
        context = make_context(tiny_network, num_events=200)
        _, burst = FlashCrowdWorkload(
            burst_fraction=0.5, burst_start=0.4, burst_duration=0.1, hot_queries=1
        ).streams(context)
        assert burst.times.min() >= 0.4
        assert burst.times.max() < 0.5 + 1e-9
        hottest = int(np.argmax(context.counts.sum(axis=0)))
        assert set(burst.queries.tolist()) == {hottest}

    def test_streams_merge_into_global_time_order(self, tiny_network):
        context = make_context(tiny_network, num_events=200)
        merged = merge_streams(FlashCrowdWorkload().streams(context))
        assert np.all(np.diff(merged.times) >= 0)
        assert len(merged) == 200


class TestReplayWorkload:
    def test_passes_must_be_at_least_one(self):
        with pytest.raises(ConfigurationError, match="passes"):
            ReplayWorkload(passes=0)

    def test_replays_every_occurrence_exactly_once_per_pass(self, tiny_network):
        context = make_context(tiny_network)
        for passes in (1, 3):
            (stream,) = ReplayWorkload(passes=passes).streams(context)
            replayed = np.zeros_like(context.counts)
            np.add.at(replayed, (stream.issuers, stream.queries), 1)
            np.testing.assert_array_equal(replayed, context.counts * passes)

    def test_replay_is_seed_independent(self, tiny_network):
        first = ReplayWorkload().streams(make_context(tiny_network, seed=1))[0]
        second = ReplayWorkload().streams(make_context(tiny_network, seed=99))[0]
        np.testing.assert_array_equal(first.issuers, second.issuers)
        np.testing.assert_array_equal(first.times, second.times)


class TestBuildWorkload:
    def test_builds_by_registered_name_and_alias(self):
        assert isinstance(build_workload("uniform"), UniformWorkload)
        assert isinstance(build_workload("zipf-heavy-tail"), ZipfWorkload)
        assert isinstance(build_workload("flash"), FlashCrowdWorkload)
        assert isinstance(build_workload("Flash_Crowd"), FlashCrowdWorkload)

    def test_options_reach_the_generator(self):
        generator = build_workload("zipf", exponent=2.5)
        assert generator.exponent == 2.5

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownComponentError):
            build_workload("tsunami")


def quick_scenario(scenario=SCENARIO_SAME_CATEGORY):
    return build_scenario(scenario, ExperimentConfig.quick().scenario)


def assert_matches_the_merged_table(network):
    """``from_network`` equals merging every workload and counting entry by entry."""
    context = make_context(network, num_events=0)
    peers, queries, counts = workload_table(network)
    assert context.peers == peers
    assert context.queries == queries
    assert context.counts.dtype == np.int64
    assert np.array_equal(context.counts, counts)


class TestOneWorkloadTable:
    """The context reads the recall matrix's table, in the global workload's query order."""

    @pytest.mark.parametrize(
        "scenario", [SCENARIO_SAME_CATEGORY, SCENARIO_DIFFERENT_CATEGORY, SCENARIO_UNIFORM]
    )
    def test_quick_scenarios(self, scenario):
        assert_matches_the_merged_table(quick_scenario(scenario).network)

    def test_the_queries_are_the_recall_matrix_rows(self):
        network = quick_scenario().network
        context = make_context(network, num_events=0)
        assert context.queries == network.recall_matrix().factored().queries

    def test_after_a_workload_drift(self):
        data = quick_scenario()
        network = data.network
        before = make_context(network, num_events=0)
        model = build_drift_model("workload-full", peer_fraction=1.0)
        rng = random.Random(5)
        model.prepare(data, rng)
        report = model.apply(network, category_configuration(data), 0, rng)
        assert report.peer_ids
        assert_matches_the_merged_table(network)
        assert not np.array_equal(make_context(network, num_events=0).counts, before.counts)

    def test_after_churn(self, tiny_network):
        make_context(tiny_network)  # the matrix is cached before the churn
        tiny_network.remove_peer("bob")
        newcomer = Peer("dave", documents=[Document(["books"])])
        newcomer.issue_query(Query(["books"]), 2)
        newcomer.issue_query(Query(["movies"]), 1)
        tiny_network.add_peer(newcomer)
        assert_matches_the_merged_table(tiny_network)
        assert make_context(tiny_network).peers == ["alice", "carol", "dave"]

    def test_with_an_idle_peer(self, tiny_network):
        tiny_network.add_peer(Peer("idle", documents=[Document(["music"])]))
        assert_matches_the_merged_table(tiny_network)
        context = make_context(tiny_network)
        assert context.issuing_rows().tolist() == [0, 1, 2]

    def test_on_a_factored_matrix(self, monkeypatch):
        monkeypatch.setattr(WeightedRecallMatrix, "FACTORED_THRESHOLD", 1)
        network = quick_scenario(SCENARIO_UNIFORM).network
        assert network.recall_matrix().mode == "factored"
        assert_matches_the_merged_table(network)


class TestStreamsArePinned:
    """Each generator's ``(times, issuers, queries)`` on a quick same-category scenario.

    The generators sample from ``np.nonzero(counts)``, so the context's query
    order decides which events a seed draws: it must stay the global
    workload's ``distinct()`` order, the order these digests were taken in.
    """

    PINS = {
        "uniform": "a53ba32a3a2575d4f8e702d013b1988a1ec65fb7fb7e1d318dd9e2b2e8781876",
        "zipf": "0411f2a7b1bf37099193f6d9c208ece56003c62bbedbd12d443dc5b34fb62093",
        "flash-crowd": "bdd96daf2e656906216589c2c3572bc9bdb9d33080a42c0f1f04fb3445f78ec2",
        "replay": "cf6cbc6ed9a85489be00ccf85e077bbdea088d8642c4c5c1b3921c6f6b7ab707",
    }

    @pytest.fixture(scope="class")
    def network(self):
        return quick_scenario().network

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_stream_digest(self, network, name):
        digest = hashlib.sha256()
        for stream in build_workload(name).streams(make_context(network, num_events=2000, seed=5)):
            digest.update(np.ascontiguousarray(stream.times, dtype=np.float64).tobytes())
            digest.update(np.ascontiguousarray(stream.issuers, dtype=np.int64).tobytes())
            digest.update(np.ascontiguousarray(stream.queries, dtype=np.int64).tobytes())
        assert digest.hexdigest() == self.PINS[name]
