"""Tests for the hybrid strategy (Section 6 future-work extension)."""

from __future__ import annotations

import pytest

from repro.core.theta import ThetaFunction
from repro.errors import ConfigurationError, StrategyError
from repro.game.model import ClusterGame
from repro.peers.configuration import ClusterConfiguration
from repro.strategies.base import StrategyContext
from repro.strategies.hybrid import HybridStrategy
from repro.strategies.selfish import SelfishStrategy
from tests.conftest import assert_movers_match, candidate_rule_contexts


@pytest.fixture
def context(tiny_network, tiny_configuration):
    game = ClusterGame(tiny_network.cost_model(use_matrix=False), tiny_configuration)
    return StrategyContext(game=game)


class TestConstruction:
    def test_weight_validation(self):
        with pytest.raises(StrategyError):
            HybridStrategy(weight=1.5)
        with pytest.raises(StrategyError):
            HybridStrategy(weight=-0.1)


class TestBehaviour:
    def test_pure_selfish_weight_matches_selfish_target(self, context):
        hybrid = HybridStrategy(weight=1.0)
        selfish = SelfishStrategy()
        for peer_id in ("alice", "bob", "carol"):
            hybrid_proposal = hybrid.propose(peer_id, context)
            selfish_proposal = selfish.propose(peer_id, context)
            if selfish_proposal.is_move and selfish_proposal.target_cluster != "__new_cluster__":
                assert hybrid_proposal.target_cluster == selfish_proposal.target_cluster

    def test_scores_exclude_current_cluster(self, context):
        scores = HybridStrategy(weight=0.5).scores("bob", context)
        assert "c2" not in scores
        assert "c1" in scores

    def test_bob_moves_for_selfish_leaning_weights(self, context):
        """bob's selfish gain dominates once it is weighted above one half."""
        for weight in (0.75, 1.0):
            proposal = HybridStrategy(weight=weight).propose("bob", context)
            assert proposal.is_move
            assert proposal.target_cluster == "c1"

    def test_pure_altruistic_weight_respects_maintenance_penalty(self, context):
        """At weight 0 the blend reduces to the altruistic criterion: in a 3-peer
        network the maintenance increase of growing c1 outweighs bob's contribution,
        so bob stays — the same decision AltruisticStrategy makes."""
        from repro.strategies.altruistic import AltruisticStrategy

        hybrid_proposal = HybridStrategy(weight=0.0).propose("bob", context)
        altruistic_proposal = AltruisticStrategy().propose("bob", context)
        assert hybrid_proposal.is_move == altruistic_proposal.is_move

    def test_stay_when_no_positive_score(self, context):
        """alice has neither a selfish nor an altruistic reason to join bob's cluster."""
        proposal = HybridStrategy(weight=1.0).propose("alice", context)
        assert not proposal.is_move
        assert proposal.gain == 0.0


class TestVectorisedProposeAll:
    def test_batch_matches_per_peer_on_scenario(self, small_scenario):
        """Kernel-backed propose_all reaches the same decisions as propose."""
        configuration = small_scenario.network.singleton_configuration()
        game = ClusterGame(small_scenario.network.cost_model(use_matrix=True), configuration)
        context = StrategyContext(game=game)
        strategy = HybridStrategy(weight=0.5)
        peer_ids = configuration.peer_ids()
        batch = strategy.propose_all(peer_ids, context)
        assert game.kernel is not None
        assert batch
        assert_movers_match(
            batch, lambda peer_id: strategy.propose(peer_id, context), peer_ids, abs=1e-9
        )

    @pytest.mark.parametrize("initial", ["random", "fewer"])
    @pytest.mark.parametrize("allow_new_clusters", [True, False])
    def test_batch_matches_per_peer_under_every_candidate_rule(
        self, uniform_quick, initial, allow_new_clusters
    ):
        configuration, fast_context, slow_context = candidate_rule_contexts(
            uniform_quick(initial), allow_new_clusters=allow_new_clusters
        )
        strategy = HybridStrategy(weight=0.5)
        batch = strategy.propose_all(configuration.peer_ids(), fast_context)
        assert fast_context.game.kernel is not None
        assert batch
        assert_movers_match(
            batch,
            lambda peer_id: strategy.propose(peer_id, slow_context),
            configuration.peer_ids(),
            abs=1e-9,
        )

    def test_batch_never_targets_the_current_cluster(self, small_scenario):
        """With a capped theta, leaving a pair saves more maintenance than joining one costs,
        so a peer's own cluster can score highest; like propose, the batch picks the best *other* cluster."""

        class CappedTheta(ThetaFunction):
            def cost(self, size):
                return float(min(size, 2))

        peer_ids = small_scenario.network.peer_ids()
        # Eight same-category pairs.
        configuration = ClusterConfiguration(
            [f"c{index}" for index in range(len(peer_ids))],
            {peer_id: f"c{(index % 4) * 2 + index // 8}" for index, peer_id in enumerate(peer_ids)},
        )
        cost_model = small_scenario.network.cost_model(theta=CappedTheta(), use_matrix=True)
        context = StrategyContext(game=ClusterGame(cost_model, configuration))
        strategy = HybridStrategy(weight=0.5)
        batch = strategy.propose_all(peer_ids, context)
        assert_movers_match(
            batch, lambda peer_id: strategy.propose(peer_id, context), peer_ids, abs=1e-9
        )

    def test_multi_cluster_peers_go_through_propose(self, small_scenario):
        peer_ids = small_scenario.network.peer_ids()
        configuration = small_scenario.network.singleton_configuration()
        configuration.assign(peer_ids[0], configuration.cluster_of(peer_ids[1]))
        context = StrategyContext(
            game=ClusterGame(small_scenario.network.cost_model(use_matrix=True), configuration)
        )
        strategy = HybridStrategy(weight=0.5)
        with pytest.raises(ConfigurationError):
            strategy.propose(peer_ids[0], context)
        with pytest.raises(ConfigurationError):
            strategy.propose_all(configuration.peer_ids(), context)

    def test_batch_falls_back_without_matrix(self, context):
        strategy = HybridStrategy(weight=0.5)
        batch = strategy.propose_all(["alice", "bob", "carol"], context)
        assert_movers_match(
            batch, lambda peer_id: strategy.propose(peer_id, context), ["alice", "bob", "carol"]
        )
