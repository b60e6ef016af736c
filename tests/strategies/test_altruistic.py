"""Tests for the altruistic relocation strategy (Section 3.1.2, Eq. 6)."""

from __future__ import annotations

import pytest

from repro.core.documents import Document
from repro.core.recall_matrix import WeightedRecallMatrix
from repro.errors import ConfigurationError, StrategyError
from repro.game.model import ClusterGame
from repro.peers.configuration import ClusterConfiguration
from repro.peers.peer import Peer
from repro.session import SessionConfig, Simulation
from repro.strategies.altruistic import AltruisticStrategy, exact_contributions
from repro.strategies.base import StrategyContext
from repro.strategies.hybrid import HybridStrategy
from repro.traffic.simulator import observe_period
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
        assert_movers_match(
            batch,
            lambda peer_id: strategy.propose(peer_id, slow_context),
            tiny_configuration.peer_ids(),
        )

    def test_propose_all_keeps_a_peer_that_serves_nobody(self, tiny_network):
        """dave serves nobody, so all of dave's contributions tie at zero: dave stays,
        even though leaving the crowded cluster for bob's would cut the maintenance cost."""
        tiny_network.add_peer(Peer("dave", documents=[Document(["cooking"], doc_id="d1")]))
        configuration = ClusterConfiguration(
            ["c0", "c1"], {"bob": "c0", "alice": "c1", "carol": "c1", "dave": "c1"}
        )
        strategy = AltruisticStrategy()
        fast_context = StrategyContext(
            game=ClusterGame(tiny_network.cost_model(use_matrix=True), configuration)
        )
        slow_context = StrategyContext(
            game=ClusterGame(tiny_network.cost_model(use_matrix=False), configuration)
        )
        batch = strategy.propose_all(configuration.peer_ids(), fast_context)
        assert "dave" not in batch
        assert_movers_match(
            batch, lambda peer_id: strategy.propose(peer_id, slow_context), configuration.peer_ids()
        )

    def test_multi_cluster_peers_go_through_propose(self, tiny_network):
        configuration = ClusterConfiguration(
            ["c1", "c2", "c3"], {"alice": ["c1", "c2"], "carol": "c1", "bob": "c2"}
        )
        context = StrategyContext(
            game=ClusterGame(tiny_network.cost_model(use_matrix=True), configuration)
        )
        strategy = AltruisticStrategy()
        with pytest.raises(ConfigurationError):
            strategy.propose("alice", context)
        with pytest.raises(ConfigurationError):
            strategy.propose_all(configuration.peer_ids(), context)

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
        assert batch
        assert_movers_match(
            batch, lambda peer_id: strategy.propose(peer_id, slow_context), configuration.peer_ids()
        )


    @pytest.mark.parametrize("initial", ["random", "fewer"])
    @pytest.mark.parametrize("allow_new_clusters", [True, False])
    def test_propose_all_matches_individual_under_every_candidate_rule(
        self, uniform_quick, initial, allow_new_clusters
    ):
        configuration, fast_context, slow_context = candidate_rule_contexts(
            uniform_quick(initial), allow_new_clusters=allow_new_clusters
        )
        strategy = AltruisticStrategy()
        batch = strategy.propose_all(configuration.peer_ids(), fast_context)
        assert fast_context.game.kernel is not None
        assert batch
        assert_movers_match(
            batch,
            lambda peer_id: strategy.propose(peer_id, slow_context),
            configuration.peer_ids(),
            abs=1e-9,
        )


class TestExactTiesOnTheLabelsPath:
    """Singleton clusters can tie exactly on Eq. 6; the batch must break such
    ties like :meth:`propose`, which needs bit-identical contributions."""

    @pytest.fixture(scope="class")
    def tied_context(self):
        seed = 199829066
        simulation = Simulation(
            SessionConfig(
                scale="quick",
                scenario="same-category",
                initial="singletons",
                seed=seed,
                scenario_overrides={"seed": seed},
            )
        )
        with pytest.MonkeyPatch.context() as patch:
            # The session's matrix is built here, factored as at 2,048+ peers.
            patch.setattr(WeightedRecallMatrix, "FACTORED_THRESHOLD", 1)
            cost_model = simulation.cost_model
        game = ClusterGame(cost_model, simulation.configuration)
        assert game.kernel.backend == "labels"
        return StrategyContext(game=game)

    def test_five_peers_tie_at_their_maximum(self, tied_context):
        tied = []
        for peer_id in tied_context.game.configuration.peer_ids():
            contributions = list(exact_contributions(peer_id, tied_context).values())
            if contributions.count(max(contributions)) > 1:
                tied.append(peer_id)
        assert tied == ["peer009", "peer022", "peer024", "peer027", "peer034"]

    @pytest.mark.parametrize(
        "strategy",
        [AltruisticStrategy(), HybridStrategy(weight=0.0)],
        ids=["altruistic", "hybrid"],
    )
    def test_batch_breaks_ties_like_propose(self, tied_context, strategy):
        peer_ids = tied_context.game.configuration.peer_ids()
        batch = strategy.propose_all(peer_ids, tied_context)
        assert batch
        for peer_id in peer_ids:
            single = strategy.propose(peer_id, tied_context)
            expected = (single.target_cluster, single.gain) if single.is_move else None
            mover = batch.get(peer_id)
            assert (None if mover is None else (mover.target_cluster, mover.gain)) == expected, (
                peer_id
            )
