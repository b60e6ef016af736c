"""Tests for the cluster game: candidates, best responses, Nash check, batch path."""

from __future__ import annotations

import pytest

from repro.core.costs import NEW_CLUSTER
from repro.game.model import ClusterGame
from repro.peers.configuration import ClusterConfiguration


@pytest.fixture
def game(tiny_network, tiny_configuration):
    return ClusterGame(tiny_network.cost_model(use_matrix=False), tiny_configuration)


class TestCandidateClusters:
    def test_default_candidates_include_new_cluster_slot(self, game):
        candidates = game.candidate_clusters()
        assert "c1" in candidates and "c2" in candidates
        assert NEW_CLUSTER in candidates

    def test_new_cluster_excluded_when_disabled(self, tiny_network, tiny_configuration):
        game = ClusterGame(
            tiny_network.cost_model(use_matrix=False),
            tiny_configuration,
            allow_new_clusters=False,
        )
        assert NEW_CLUSTER not in game.candidate_clusters()

    def test_no_new_cluster_option_without_an_empty_slot(self, tiny_network):
        configuration = ClusterConfiguration(
            ["c1", "c2"], {"alice": "c1", "carol": "c1", "bob": "c2"}
        )
        game = ClusterGame(tiny_network.cost_model(use_matrix=False), configuration)
        assert game.candidate_clusters() == ["c1", "c2"]


class TestBestResponse:
    def test_bob_prefers_to_join_the_music_cluster(self, game):
        """bob queries "music"; alice and carol hold all music results in c1."""
        response = game.best_response("bob")
        assert response.best_cluster == "c1"
        assert response.wants_to_move
        assert response.gain == pytest.approx(
            game.current_cost("bob") - game.prospective_cost("bob", "c1")
        )

    def test_gain_is_non_negative(self, game):
        for peer_id in ("alice", "bob", "carol"):
            assert game.best_response(peer_id).gain >= 0.0

    def test_cost_by_cluster_contains_all_candidates(self, game):
        costs = game.cost_by_cluster("alice")
        assert set(costs) == set(game.candidate_clusters())

    def test_pgain_matches_best_response(self, game):
        assert game.pgain("bob") == pytest.approx(game.best_response("bob").gain)


class TestNashEquilibrium:
    def test_tiny_configuration_is_not_stable(self, game):
        assert not game.is_nash_equilibrium()
        deviators = {response.peer_id for response in game.deviating_peers()}
        assert "bob" in deviators

    def test_all_together_is_stable_for_tiny_network(self, tiny_network):
        configuration = ClusterConfiguration(
            ["c1", "c2"], {peer_id: "c1" for peer_id in tiny_network.peer_ids()}
        )
        game = ClusterGame(
            tiny_network.cost_model(alpha=0.1, use_matrix=False), configuration
        )
        assert game.is_nash_equilibrium()

    def test_global_costs_delegate_to_cost_model(self, game, tiny_network, tiny_configuration):
        cost_model = tiny_network.cost_model(use_matrix=False)
        assert game.social_cost() == pytest.approx(cost_model.social_cost(tiny_configuration))
        assert game.workload_cost(normalized=True) == pytest.approx(
            cost_model.workload_cost(tiny_configuration, normalized=True)
        )


class TestVectorisedTable:
    def test_best_responses_match_per_peer_best_response(self, tiny_network, tiny_configuration):
        fast_game = ClusterGame(tiny_network.cost_model(use_matrix=True), tiny_configuration)
        slow_game = ClusterGame(tiny_network.cost_model(use_matrix=False), tiny_configuration)
        fast = fast_game.best_responses()
        for peer_id in tiny_configuration.peer_ids():
            slow = slow_game.best_response(peer_id)
            assert fast[peer_id].best_cluster == slow.best_cluster
            assert fast[peer_id].best_cost == pytest.approx(slow.best_cost)
            assert fast[peer_id].gain == pytest.approx(slow.gain)

    def test_best_responses_on_scenario(self, small_scenario):
        """Vectorised and scalar best responses agree on a realistic scenario."""
        configuration = small_scenario.network.singleton_configuration()
        fast_game = ClusterGame(
            small_scenario.network.cost_model(use_matrix=True), configuration
        )
        slow_game = ClusterGame(
            small_scenario.network.cost_model(use_matrix=False), configuration
        )
        fast = fast_game.best_responses()
        for peer_id in list(configuration.peer_ids())[:6]:
            slow = slow_game.best_response(peer_id)
            assert fast[peer_id].best_cost == pytest.approx(slow.best_cost)
            assert fast[peer_id].gain == pytest.approx(slow.gain)

    def test_batch_costs_come_from_the_kernel_when_there_is_one(
        self, tiny_network, tiny_configuration
    ):
        fast_game = ClusterGame(tiny_network.cost_model(use_matrix=True), tiny_configuration)
        slow_game = ClusterGame(tiny_network.cost_model(use_matrix=False), tiny_configuration)
        assert fast_game.kernel is not None and slow_game.kernel is None
        assert fast_game.social_cost() == fast_game.kernel.social_cost()
        assert fast_game.workload_cost(normalized=True) == fast_game.kernel.workload_cost(
            normalized=True
        )
        assert fast_game.social_cost() == pytest.approx(slow_game.social_cost())
        slow_costs = slow_game.current_costs()
        assert set(slow_costs) == set(tiny_configuration.peer_ids())
        assert fast_game.current_costs() == pytest.approx(slow_costs)

    def test_selection_scores_the_candidate_clusters(self, game, tiny_network, tiny_configuration):
        assert game.selection() is None  # no recall matrix, no kernel
        for allow_new_clusters in (True, False):
            fast_game = ClusterGame(
                tiny_network.cost_model(use_matrix=True),
                tiny_configuration,
                allow_new_clusters=allow_new_clusters,
            )
            selection = fast_game.selection()
            assert selection.candidates == ["c1", "c2"]
            assert selection.eligible.all()
            responses = fast_game.best_responses()
            for row, peer_id in enumerate(fast_game.kernel.peer_order):
                assert (not selection.stay[row]) == responses[peer_id].wants_to_move
