"""Tests for the selfish relocation strategy (Section 3.1.1)."""

from __future__ import annotations

import pytest

from repro.core.costs import NEW_CLUSTER
from repro.errors import ConfigurationError, StrategyError
from repro.game.model import ClusterGame
from repro.peers.configuration import ClusterConfiguration
from repro.strategies.base import StrategyContext
from repro.traffic.simulator import observe_period
from repro.strategies.selfish import SelfishStrategy
from tests.conftest import assert_movers_match, candidate_rule_contexts


@pytest.fixture
def exact_context(tiny_network, tiny_configuration):
    game = ClusterGame(tiny_network.cost_model(use_matrix=False), tiny_configuration)
    return StrategyContext(game=game)


@pytest.fixture
def observed_context(tiny_network, tiny_configuration):
    statistics = observe_period(tiny_network, tiny_configuration)
    game = ClusterGame(tiny_network.cost_model(use_matrix=False), tiny_configuration)
    return StrategyContext(game=game, statistics=statistics)


class TestConstruction:
    def test_invalid_mode_rejected(self):
        with pytest.raises(StrategyError):
            SelfishStrategy(mode="psychic")


class TestExactMode:
    def test_bob_moves_to_the_music_cluster(self, exact_context):
        proposal = SelfishStrategy().propose("bob", exact_context)
        assert proposal.is_move
        assert proposal.target_cluster == "c1"
        assert proposal.gain > 0
        # pgain = pcost(current) - pcost(best)
        game = exact_context.game
        assert proposal.gain == pytest.approx(
            game.current_cost("bob") - game.prospective_cost("bob", "c1")
        )

    def test_satisfied_peer_stays(self, exact_context):
        """alice already reaches half the "movies" results via carol; no move improves on that."""
        proposal = SelfishStrategy().propose("alice", exact_context)
        assert not proposal.is_move
        assert proposal.gain == 0.0

    def test_carol_prefers_the_cluster_holding_the_missing_results(self, exact_context):
        proposal = SelfishStrategy().propose("carol", exact_context)
        assert proposal.is_move
        assert proposal.target_cluster == "c2"

    def test_propose_all_matches_individual_proposals(self, tiny_network, tiny_configuration):
        strategy = SelfishStrategy()
        fast_context = StrategyContext(
            game=ClusterGame(tiny_network.cost_model(use_matrix=True), tiny_configuration)
        )
        slow_context = StrategyContext(
            game=ClusterGame(tiny_network.cost_model(use_matrix=False), tiny_configuration)
        )
        batch = strategy.propose_all(tiny_configuration.peer_ids(), fast_context)
        assert set(batch) == {"bob", "carol"}
        assert_movers_match(
            batch,
            lambda peer_id: strategy.propose(peer_id, slow_context),
            tiny_configuration.peer_ids(),
        )

    def test_propose_all_matches_individual_proposals_on_scenario(self, small_scenario):
        """Kernel movers (including fresh-cluster moves) equal the scalar best responses."""
        peer_ids = small_scenario.network.peer_ids()
        # Two crowded clusters: some peers join the other one, some leave for a fresh slot.
        configuration = ClusterConfiguration(
            [f"c{index}" for index in range(len(peer_ids))],
            {peer_id: "c0" if index < 10 else "c1" for index, peer_id in enumerate(peer_ids)},
        )
        strategy = SelfishStrategy()
        fast_context = StrategyContext(
            game=ClusterGame(small_scenario.network.cost_model(use_matrix=True), configuration)
        )
        slow_context = StrategyContext(
            game=ClusterGame(small_scenario.network.cost_model(use_matrix=False), configuration)
        )
        batch = strategy.propose_all(configuration.peer_ids(), fast_context)
        assert fast_context.game.kernel is not None
        assert {"c0", "c1", NEW_CLUSTER} <= {mover.target_cluster for mover in batch.values()}
        assert_movers_match(
            batch, lambda peer_id: strategy.propose(peer_id, slow_context), configuration.peer_ids()
        )

    @pytest.mark.parametrize("initial", ["random", "fewer"])
    @pytest.mark.parametrize("allow_new_clusters", [True, False])
    def test_propose_all_follows_the_games_candidate_rule(
        self, uniform_quick, initial, allow_new_clusters
    ):
        """Batch and per-peer proposals read one candidate list: a fresh cluster
        is proposed only when creation is allowed."""
        configuration, fast_context, slow_context = candidate_rule_contexts(
            uniform_quick(initial), allow_new_clusters=allow_new_clusters
        )
        strategy = SelfishStrategy()
        batch = strategy.propose_all(configuration.peer_ids(), fast_context)
        assert fast_context.game.kernel is not None
        creating = any(mover.target_cluster == NEW_CLUSTER for mover in batch.values())
        assert creating == allow_new_clusters
        assert_movers_match(
            batch,
            lambda peer_id: strategy.propose(peer_id, slow_context),
            configuration.peer_ids(),
            abs=1e-9,
        )

    def test_multi_cluster_peers_go_through_propose(self, tiny_network):
        configuration = ClusterConfiguration(
            ["c1", "c2", "c3"], {"alice": ["c1", "c2"], "carol": "c1", "bob": "c2"}
        )
        context = StrategyContext(
            game=ClusterGame(tiny_network.cost_model(use_matrix=True), configuration)
        )
        strategy = SelfishStrategy()
        with pytest.raises(ConfigurationError):
            strategy.propose("alice", context)
        with pytest.raises(ConfigurationError):
            strategy.propose_all(configuration.peer_ids(), context)


class TestObservedMode:
    def test_requires_statistics(self, exact_context):
        with pytest.raises(StrategyError):
            SelfishStrategy(mode="observed").propose("bob", exact_context)

    def test_observed_costs_cover_nonempty_clusters(self, observed_context):
        costs = SelfishStrategy(mode="observed").observed_costs("bob", observed_context)
        assert set(costs) == {"c1", "c2"}

    def test_observed_agrees_with_exact_under_broadcast(self, observed_context, exact_context):
        """With broadcast routing the observed decision matches the oracle for the mover."""
        observed = SelfishStrategy(mode="observed").propose("bob", observed_context)
        exact = SelfishStrategy(mode="exact").propose("bob", exact_context)
        assert observed.target_cluster == exact.target_cluster
        assert observed.is_move

    def test_propose_all_falls_back_to_per_peer(self, observed_context):
        strategy = SelfishStrategy(mode="observed")
        batch = strategy.propose_all(["alice", "bob", "carol"], observed_context)
        assert "bob" in batch
        assert_movers_match(
            batch,
            lambda peer_id: strategy.propose(peer_id, observed_context),
            ["alice", "bob", "carol"],
        )
