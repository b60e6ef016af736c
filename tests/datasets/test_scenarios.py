"""Tests for the paper's scenario builders and initial configurations."""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import random

import pytest

from repro.datasets.scenarios import (
    SCENARIO_DIFFERENT_CATEGORY,
    SCENARIO_SAME_CATEGORY,
    SCENARIO_UNIFORM,
    ScenarioConfig,
    build_scenario,
    category_configuration,
    initial_configuration,
)
from repro.dynamics.models import build_drift_model
from repro.errors import DatasetError
from repro.experiments.config import ExperimentConfig

SMALL = ScenarioConfig(
    num_peers=20,
    num_categories=4,
    documents_per_peer=4,
    terms_per_document=3,
    category_vocabulary_size=15,
    queries_per_peer=3,
    seed=9,
)


class TestBuildScenario:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(DatasetError):
            build_scenario("mystery", SMALL)

    def test_same_category_scenario(self):
        data = build_scenario(SCENARIO_SAME_CATEGORY, SMALL)
        assert len(data.network) == 20
        assert data.optimal_cluster_count == 4
        for peer_id in data.peer_ids():
            assert data.data_categories[peer_id] == data.query_categories[peer_id]
            assert data.data_categories[peer_id] is not None

    def test_different_category_scenario(self):
        data = build_scenario(SCENARIO_DIFFERENT_CATEGORY, SMALL)
        assert data.optimal_cluster_count == 4 * 3
        for peer_id in data.peer_ids():
            assert data.data_categories[peer_id] != data.query_categories[peer_id]

    def test_uniform_scenario_has_no_labels(self):
        data = build_scenario(SCENARIO_UNIFORM, SMALL)
        assert all(category is None for category in data.data_categories.values())

    def test_workload_volumes(self):
        data = build_scenario(SCENARIO_SAME_CATEGORY, SMALL)
        total = sum(peer.workload.total() for peer in data.network.peers())
        assert total == SMALL.num_peers * SMALL.queries_per_peer

    def test_uniform_workload_flag(self):
        from dataclasses import replace

        data = build_scenario(SCENARIO_SAME_CATEGORY, replace(SMALL, uniform_workload=True))
        volumes = {peer.workload.total() for peer in data.network.peers()}
        assert volumes == {SMALL.queries_per_peer}

    def test_determinism(self):
        first = build_scenario(SCENARIO_SAME_CATEGORY, SMALL)
        second = build_scenario(SCENARIO_SAME_CATEGORY, SMALL)
        for peer_id in first.peer_ids():
            assert first.network.peer(peer_id).workload == second.network.peer(peer_id).workload

    def test_same_category_peer_documents_match_their_category(self):
        data = build_scenario(SCENARIO_SAME_CATEGORY, SMALL)
        peer_id = data.peer_ids()[0]
        category = data.data_categories[peer_id]
        for document in data.network.peer(peer_id).documents:
            assert document.category == category


class TestInitialConfigurations:
    @pytest.fixture(scope="class")
    def data(self):
        return build_scenario(SCENARIO_SAME_CATEGORY, SMALL)

    def test_singletons(self, data):
        configuration = initial_configuration(data, "singletons")
        assert configuration.num_nonempty_clusters() == 20

    def test_random_uses_optimal_cluster_count(self, data):
        configuration = initial_configuration(data, "random")
        assert configuration.num_nonempty_clusters() <= 4
        assert len(configuration.peer_ids()) == 20

    def test_fewer_and_more(self, data):
        fewer = initial_configuration(data, "fewer")
        more = initial_configuration(data, "more")
        assert fewer.num_nonempty_clusters() <= 2
        assert more.num_nonempty_clusters() > 4

    def test_explicit_cluster_count(self, data):
        configuration = initial_configuration(data, "random", num_clusters=3)
        assert configuration.num_nonempty_clusters() <= 3

    def test_unknown_kind_rejected(self, data):
        with pytest.raises(DatasetError):
            initial_configuration(data, "chaotic")

    def test_total_slot_count_is_cmax(self, data):
        configuration = initial_configuration(data, "random")
        assert len(configuration.cluster_ids()) == 20


class TestCategoryConfiguration:
    def test_one_cluster_per_category(self):
        data = build_scenario(SCENARIO_SAME_CATEGORY, SMALL)
        configuration = category_configuration(data)
        assert configuration.num_nonempty_clusters() == SMALL.num_categories
        for peer_id in data.peer_ids():
            members = configuration.members(configuration.cluster_of(peer_id))
            categories = {data.data_categories[member] for member in members}
            assert categories == {data.data_categories[peer_id]}

    def test_requires_labels(self):
        data = build_scenario(SCENARIO_UNIFORM, SMALL)
        with pytest.raises(DatasetError):
            category_configuration(data)


def generation_digest(data):
    """sha256 over every peer's documents and workload, in peer order.

    Each document is ``(doc_id, category, sorted attributes)`` and each
    workload entry ``(sorted query attributes, count)`` from ``items()``.
    """
    digest = hashlib.sha256()
    for peer_id in data.peer_ids():
        peer = data.network.peer(peer_id)
        documents = [
            [document.doc_id, document.category, sorted(document.attributes)]
            for document in peer.documents
        ]
        workload = [[sorted(query.attributes), count] for query, count in peer.workload.items()]
        digest.update(json.dumps([peer_id, documents, workload]).encode() + b"\n")
    return digest.hexdigest()


class TestGenerationIsPinned:
    """Scenario generation stays byte for byte what it was.

    A change to any generated document or query fails here, in tier-1, and
    not only in the parity sets that run whole sessions.
    """

    QUICK = {
        SCENARIO_SAME_CATEGORY: "2f0c3d8462d362307f16d86ca541c1d081c038b3772c3dad9c72fe80bdd53b43",
        SCENARIO_DIFFERENT_CATEGORY: "7e90ff9902056fe3e1299bbf275f6d076a09cb7c3ecf1756f145a83b73e9f2e6",
        SCENARIO_UNIFORM: "5e22a825c725fca3c86a10ebde06faa85e06ce28a2c9d849102960b19d312c49",
    }

    @pytest.mark.parametrize("scenario", sorted(QUICK))
    def test_quick_scale_scenarios(self, scenario):
        data = build_scenario(scenario, ExperimentConfig.quick().scenario)
        assert generation_digest(data) == self.QUICK[scenario]

    def test_paper_defaults_with_uniform_workload(self):
        data = build_scenario(SCENARIO_SAME_CATEGORY, ScenarioConfig(uniform_workload=True))
        assert len(data.network) == 200
        expected = "a41fb1a4cc2f8d519b9a7bfd5bca2984a788015568823af02778f61c9ecbd7b2"
        assert generation_digest(data) == expected


def assert_equal_queries_shared(network):
    """Equal workload queries across the whole network are one object."""
    first_seen = {}
    for peer in network.peers():
        for query in peer.workload:
            assert first_seen.setdefault(query, query) is query


class TestSharedQueries:
    def test_equal_workload_queries_are_one_object(self):
        data = build_scenario(SCENARIO_UNIFORM, ExperimentConfig.quick().scenario)
        assert_equal_queries_shared(data.network)

    def test_workload_full_drift_draws_the_same_objects(self):
        data = build_scenario(SCENARIO_SAME_CATEGORY, ExperimentConfig.quick().scenario)
        built = {query: query for peer in data.network.peers() for query in peer.workload}
        model = build_drift_model("workload-full", peer_fraction=1.0)
        rng = random.Random(5)
        model.prepare(data, rng)
        report = model.apply(data.network, category_configuration(data), 0, rng)
        drifted = [data.network.peer(peer_id) for peer_id in report.peer_ids]
        assert drifted and all(
            data.query_categories[peer.peer_id] != report.category for peer in drifted
        )
        assert_equal_queries_shared(data.network)
        redrawn = [query for peer in drifted for query in peer.workload if query in built]
        assert redrawn and all(built[query] is query for query in redrawn)

    def test_deepcopy_keeps_every_workload(self):
        data = build_scenario(SCENARIO_DIFFERENT_CATEGORY, ExperimentConfig.quick().scenario)
        copied = copy.deepcopy(data)
        for peer_id in data.peer_ids():
            original = data.network.peer(peer_id)
            duplicate = copied.network.peer(peer_id)
            assert duplicate is not original
            assert duplicate.workload == original.workload
            assert list(duplicate.workload.items()) == list(original.workload.items())
        assert_equal_queries_shared(copied.network)
        assert generation_digest(copied) == generation_digest(data)


class TestBuildFootprint:
    def test_tracked_objects_per_peer(self):
        """A build leaves at most 40 collector-tracked objects per peer.

        Per-posting containers (one ``set`` per attribute per peer) or one
        ``Query`` per workload occurrence would each add several per peer.
        """
        peers = 1000
        gc.collect()
        before = len(gc.get_objects())
        data = build_scenario(SCENARIO_SAME_CATEGORY, ScenarioConfig(num_peers=peers))
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert len(data.network) == peers
        assert grown <= 40 * peers, f"{grown / peers:.1f} tracked objects per peer"
