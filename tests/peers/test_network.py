"""Tests for PeerNetwork (population management and derived models)."""

from __future__ import annotations

import pytest

from repro.core.documents import Document
from repro.core.queries import Query
from repro.errors import ConfigurationError, UnknownPeerError
from repro.peers.network import PeerNetwork
from repro.peers.peer import Peer


class TestPopulation:
    def test_add_and_lookup(self, tiny_network):
        assert len(tiny_network) == 3
        assert "alice" in tiny_network
        assert tiny_network.peer("alice").peer_id == "alice"
        assert tiny_network.peer_ids() == ["alice", "bob", "carol"]

    def test_duplicate_peer_rejected(self, tiny_network):
        with pytest.raises(ConfigurationError):
            tiny_network.add_peer(Peer("alice"))

    def test_remove_peer(self, tiny_network):
        removed = tiny_network.remove_peer("bob")
        assert removed.peer_id == "bob"
        assert len(tiny_network) == 2
        with pytest.raises(UnknownPeerError):
            tiny_network.peer("bob")

    def test_result_count_delegates_to_peer(self, tiny_network):
        assert tiny_network.result_count(Query(["music"]), "alice") == 2


class TestDerivedModels:
    def test_recall_model_tracks_content_updates(self, tiny_network):
        model = tiny_network.recall_model()
        assert model.total_results(Query(["music"])) == 3
        tiny_network.peer("alice").replace_documents([Document(["movies"])])
        refreshed = tiny_network.recall_model()
        assert refreshed.total_results(Query(["music"])) == 1

    def test_recall_model_tracks_churn(self, tiny_network):
        tiny_network.recall_model()
        tiny_network.remove_peer("alice")
        assert len(tiny_network.recall_model()) == 2

    def test_recall_matrix_is_cached(self, tiny_network):
        first = tiny_network.recall_matrix()
        second = tiny_network.recall_matrix()
        assert first is second
        assert tiny_network.recall_matrix(rebuild=True) is not first

    def test_cost_model_matrix_toggle(self, tiny_network):
        assert tiny_network.cost_model(use_matrix=True).matrix is not None
        assert tiny_network.cost_model(use_matrix=False).matrix is None

    def test_configuration_helpers(self, tiny_network):
        slots = tiny_network.full_configuration_slots()
        assert len(slots.cluster_ids()) == 3
        singles = tiny_network.singleton_configuration()
        assert singles.num_nonempty_clusters() == 3
