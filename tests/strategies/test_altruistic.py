"""Tests for the altruistic relocation strategy (Section 3.1.2, Eq. 6)."""

from __future__ import annotations

import pytest

from repro.errors import StrategyError
from repro.game.model import ClusterGame
from repro.strategies.altruistic import AltruisticStrategy, exact_contributions
from repro.strategies.base import StrategyContext
from repro.traffic.simulator import observe_period


@pytest.fixture
def exact_context(tiny_network, tiny_configuration):
    game = ClusterGame(tiny_network.cost_model(use_matrix=False), tiny_configuration)
    return StrategyContext(game=game)


@pytest.fixture
def observed_context(tiny_network, tiny_configuration):
    statistics = observe_period(tiny_network, tiny_configuration)
    game = ClusterGame(tiny_network.cost_model(use_matrix=False), tiny_configuration)
    return StrategyContext(game=game, statistics=statistics)


class TestContributions:
    def test_eq6_by_hand_for_alice(self, exact_context):
        """alice only serves bob's "music" query (2 of her docs), i.e. cluster c2 entirely."""
        contributions = exact_contributions("alice", exact_context)
        assert contributions["c2"] == pytest.approx(1.0)
        assert contributions["c1"] == pytest.approx(0.0)

    def test_contributions_sum_to_at_most_one(self, exact_context):
        for peer_id in ("alice", "bob", "carol"):
            total = sum(exact_contributions(peer_id, exact_context).values())
            assert total <= 1.0 + 1e-9

    def test_observed_contributions_match_exact_under_broadcast(
        self, exact_context, observed_context
    ):
        exact_strategy = AltruisticStrategy(mode="exact")
        observed_strategy = AltruisticStrategy(mode="observed")
        for peer_id in ("alice", "bob", "carol"):
            exact = exact_strategy.contributions(peer_id, exact_context)
            observed = observed_strategy.contributions(peer_id, observed_context)
            for cluster_id, value in exact.items():
                assert observed[cluster_id] == pytest.approx(value)

    def test_observed_requires_statistics(self, exact_context):
        with pytest.raises(StrategyError):
            AltruisticStrategy(mode="observed").contributions("alice", exact_context)


class TestGainAndProposal:
    def test_alice_moves_to_where_she_is_needed(self, exact_context):
        """alice contributes everything to c2 (bob's cluster), so she proposes to join it."""
        proposal = AltruisticStrategy().propose("alice", exact_context)
        assert proposal.is_move
        assert proposal.target_cluster == "c2"
        assert proposal.gain > 0

    def test_carol_stays_with_her_consumers(self, exact_context):
        proposal = AltruisticStrategy().propose("carol", exact_context)
        assert not proposal.is_move

    def test_cluster_gain_accounts_for_maintenance_increase(self, exact_context):
        strategy = AltruisticStrategy()
        gain = strategy.cluster_gain("alice", "c2", exact_context)
        contributions = strategy.contributions("alice", exact_context)
        cost_model = exact_context.game.cost_model
        expected = (
            contributions["c2"]
            - contributions["c1"]
            - (
                strategy.join_cost_increase(cost_model, 1)
                - strategy.leave_cost_decrease(cost_model, 2)
            )
        )
        assert gain == pytest.approx(expected)

    def test_invalid_mode_rejected(self):
        with pytest.raises(StrategyError):
            AltruisticStrategy(mode="telepathic")


class TestBatchEquivalence:
    def test_propose_all_matches_individual(self, tiny_network, tiny_configuration):
        strategy = AltruisticStrategy()
        fast_context = StrategyContext(
            game=ClusterGame(tiny_network.cost_model(use_matrix=True), tiny_configuration)
        )
        slow_context = StrategyContext(
            game=ClusterGame(tiny_network.cost_model(use_matrix=False), tiny_configuration)
        )
        batch = strategy.propose_all(tiny_configuration.peer_ids(), fast_context)
        for peer_id in tiny_configuration.peer_ids():
            single = strategy.propose(peer_id, slow_context)
            assert batch[peer_id].target_cluster == single.target_cluster
            assert batch[peer_id].gain == pytest.approx(single.gain)

    def test_propose_all_on_scenario(self, small_scenario):
        """Vectorised and scalar altruistic proposals agree on a realistic scenario."""
        configuration = small_scenario.network.singleton_configuration()
        strategy = AltruisticStrategy()
        fast_context = StrategyContext(
            game=ClusterGame(small_scenario.network.cost_model(use_matrix=True), configuration)
        )
        slow_context = StrategyContext(
            game=ClusterGame(small_scenario.network.cost_model(use_matrix=False), configuration)
        )
        batch = strategy.propose_all(configuration.peer_ids(), fast_context)
        for peer_id in list(configuration.peer_ids())[:6]:
            single = strategy.propose(peer_id, slow_context)
            assert batch[peer_id].target_cluster == single.target_cluster
            assert batch[peer_id].gain == pytest.approx(single.gain)
