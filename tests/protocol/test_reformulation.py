"""Tests for the full reformulation protocol driver."""

from __future__ import annotations

import pytest

from repro.core.costs import NEW_CLUSTER
from repro.game.equilibrium import build_two_peer_counterexample
from repro.game.model import ClusterGame
from repro.peers.configuration import ClusterConfiguration
from repro.protocol.reformulation import ReformulationProtocol
from repro.strategies.selfish import SelfishStrategy
from repro.strategies.altruistic import AltruisticStrategy
from repro.strategies.base import RelocationProposal, RelocationStrategy
from repro.baselines.static import StaticStrategy
from repro.session import SessionConfig, Simulation
from tests.conftest import make_small_scenario, make_tiny_network


class TestTinyNetworkRuns:
    def test_selfish_run_reaches_equilibrium(self):
        network = make_tiny_network()
        configuration = ClusterConfiguration(
            ["c1", "c2", "c3"], {"alice": "c1", "carol": "c1", "bob": "c2"}
        )
        cost_model = network.cost_model(use_matrix=False)
        protocol = ReformulationProtocol(cost_model, configuration, SelfishStrategy())
        result = protocol.run(max_rounds=20)
        assert result.converged
        game = ClusterGame(cost_model, configuration, allow_new_clusters=True)
        assert game.is_nash_equilibrium()

    def test_cost_traces_have_initial_plus_per_round_entries(self):
        network = make_tiny_network()
        configuration = network.singleton_configuration()
        protocol = ReformulationProtocol(
            network.cost_model(use_matrix=False), configuration, SelfishStrategy()
        )
        result = protocol.run(max_rounds=20)
        rounds_with_moves = sum(1 for r in result.rounds if r.num_granted > 0)
        assert len(result.social_cost_trace) == rounds_with_moves + 1
        assert len(result.workload_cost_trace) == len(result.social_cost_trace)
        assert len(result.cluster_count_trace) == len(result.social_cost_trace)

    def test_static_strategy_never_moves(self):
        network = make_tiny_network()
        configuration = network.singleton_configuration()
        protocol = ReformulationProtocol(
            network.cost_model(use_matrix=False), configuration, StaticStrategy()
        )
        result = protocol.run(max_rounds=5)
        assert result.converged
        assert result.total_moves == 0
        assert result.num_rounds == 0

    def test_message_accounting(self):
        network = make_tiny_network()
        configuration = network.singleton_configuration()
        protocol = ReformulationProtocol(
            network.cost_model(use_matrix=False), configuration, SelfishStrategy()
        )
        result = protocol.run(max_rounds=20)
        if result.total_moves:
            assert result.message_counts.get("GrantMessage", 0) == result.total_moves
            assert result.message_counts.get("GainReportMessage", 0) > 0


class TestScenarioRuns:
    def test_selfish_discovers_categories_from_singletons(self):
        scenario = make_small_scenario()
        configuration = scenario.network.singleton_configuration()
        cost_model = scenario.network.cost_model()
        protocol = ReformulationProtocol(cost_model, configuration, SelfishStrategy())
        result = protocol.run(max_rounds=60)
        assert result.converged
        assert configuration.num_nonempty_clusters() == scenario.config.num_categories
        # Ideal clustering: membership cost only, 1 / M per peer.
        assert result.final_social_cost == pytest.approx(
            1.0 / scenario.config.num_categories, abs=0.05
        )

    def test_altruistic_discovers_categories_from_singletons(self):
        scenario = make_small_scenario()
        configuration = scenario.network.singleton_configuration()
        cost_model = scenario.network.cost_model()
        initial_cost = cost_model.social_cost(configuration, normalized=True)
        protocol = ReformulationProtocol(cost_model, configuration, AltruisticStrategy())
        result = protocol.run(max_rounds=60)
        assert result.converged
        # Altruistic relocation consolidates the singletons into far fewer
        # clusters (it may stop short of the exact category partition).
        assert configuration.num_nonempty_clusters() <= scenario.config.num_peers // 2
        assert result.final_social_cost < initial_cost

    def test_gain_threshold_stops_marginal_moves(self):
        scenario = make_small_scenario()
        configuration = scenario.network.singleton_configuration()
        cost_model = scenario.network.cost_model()
        strict = ReformulationProtocol(
            cost_model, configuration, SelfishStrategy(), gain_threshold=10.0
        )
        result = strict.run(max_rounds=10)
        assert result.converged
        assert result.total_moves == 0

    def test_restrict_to_nonempty_keeps_cluster_count_fixed(self):
        scenario = make_small_scenario()
        from repro.datasets.scenarios import category_configuration

        configuration = category_configuration(scenario)
        before = configuration.num_nonempty_clusters()
        cost_model = scenario.network.cost_model()
        protocol = ReformulationProtocol(
            cost_model,
            configuration,
            SelfishStrategy(),
            allow_cluster_creation=False,
            restrict_to_nonempty=True,
        )
        protocol.run(max_rounds=30)
        assert configuration.num_nonempty_clusters() <= before
        assert len(configuration.peer_ids()) == scenario.config.num_peers

    def test_restrict_to_nonempty_wins_over_allowed_creation(self):
        """Restricted candidates hold no fresh cluster, so the count never rises,
        although the session leaves cluster creation on."""
        simulation = Simulation(
            SessionConfig(
                scale="quick",
                scenario="uniform",
                initial="fewer",
                strategy="selfish",
                seed=7,
                restrict_to_nonempty=True,
            )
        )
        assert simulation.config.allow_cluster_creation
        result = simulation.run()
        assert result.cluster_count_trace[0] == 2
        assert max(result.cluster_count_trace) == 2
        assert result.moves > 0

    def test_one_game_serves_every_round(self):
        scenario = make_small_scenario()
        configuration = scenario.network.singleton_configuration()
        protocol = ReformulationProtocol(
            scenario.network.cost_model(), configuration, SelfishStrategy()
        )
        game, kernel = protocol.game, protocol.game.kernel
        result = protocol.run(max_rounds=30)
        assert result.total_moves > 0
        assert protocol.game is game and game.kernel is kernel
        assert game.configuration is configuration

    def test_creation_cost_increase_gate(self):
        """With a huge creation threshold and no prior costs remembered, NEW_CLUSTER
        proposals are still allowed on the first period; after remembering costs they
        are filtered unless the peer's cost increased enough."""
        scenario = make_small_scenario()
        configuration = scenario.network.singleton_configuration()
        cost_model = scenario.network.cost_model()
        protocol = ReformulationProtocol(
            cost_model,
            configuration,
            SelfishStrategy(),
            creation_cost_increase=100.0,
        )
        protocol.remember_current_costs()
        result = protocol.run(max_rounds=40)
        assert result.converged
        # No peer's cost increased by 100, so no new cluster was created by a
        # NEW_CLUSTER proposal (moves into existing clusters are unaffected).
        created = [
            move
            for round_result in result.rounds
            for move in round_result.granted
            if move.created_cluster
        ]
        assert created == []


class TestNoEquilibrium:
    """The paper's two-peer instance from its ``split`` configuration.

    At ``alpha=1`` the game has no pure equilibrium, so selfish rounds must
    not report convergence; at ``alpha=2.5`` ``split`` is an equilibrium.
    """

    @staticmethod
    def _protocol(alpha):
        instance = build_two_peer_counterexample(alpha=alpha)
        configuration = instance.configurations()["split"]
        return ReformulationProtocol(instance.cost_model, configuration, SelfishStrategy())

    def test_a_repeated_configuration_stops_the_run(self):
        result = self._protocol(1.0).run(max_rounds=12)
        assert (result.converged, result.cycle_detected) == (False, True)
        assert len(result.rounds) == 4

    def test_without_cycle_detection_the_round_budget_stops_the_run(self):
        result = self._protocol(1.0).run(max_rounds=12, detect_cycles=False)
        assert (result.converged, result.cycle_detected) == (False, False)
        assert len(result.rounds) == 12
        assert result.cluster_count_trace == [2, 1] * 6 + [2]

    def test_with_an_equilibrium_the_first_round_converges(self):
        protocol = self._protocol(2.5)
        result = protocol.run(max_rounds=12)
        assert (result.converged, result.cycle_detected) == (True, False)
        assert len(result.rounds) == 1
        assert result.total_moves == 0
        assert protocol.game.is_nash_equilibrium()


class NewClusterStrategy(RelocationStrategy):
    """Every peer sharing its cluster asks for a fresh one; lone peers stay."""

    def propose(self, peer_id, context):
        configuration = context.game.configuration
        current = configuration.cluster_of(peer_id)
        if configuration.size(current) < 2:
            return self._stay(peer_id, context)
        return RelocationProposal(
            peer_id=peer_id, source_cluster=current, target_cluster=NEW_CLUSTER, gain=1.0
        )


class SilentStrategy(RelocationStrategy):
    """Answers ``None`` for every peer: every peer stays."""

    def propose(self, peer_id, context):
        return None


def _reports_of_one_round(protocol, round_number=0):
    before = protocol.bus.count("GainReportMessage")
    round_result = protocol.run_round(round_number)
    return protocol.bus.count("GainReportMessage") - before, round_result


class TestGainReports:
    """One gain report per cluster membership of every assigned peer, less the creation-gate drops."""

    def _protocol(self, strategy, configuration, **options):
        network = make_tiny_network()
        return ReformulationProtocol(
            network.cost_model(use_matrix=False), configuration, strategy, **options
        )

    def test_every_membership_reports_once_per_round(self):
        configuration = ClusterConfiguration(
            ["c1", "c2", "c3"], {"alice": "c1", "carol": "c1", "bob": "c2"}
        )
        protocol = self._protocol(SelfishStrategy(), configuration)
        result = protocol.run(max_rounds=20)
        assert result.message_counts["GainReportMessage"] == 3 * len(result.rounds)

    def test_creation_gate_drops_are_not_reported(self):
        configuration = ClusterConfiguration(
            ["c1", "c2", "c3", "c4"], {"alice": "c1", "bob": "c1", "carol": "c1"}
        )
        protocol = self._protocol(
            NewClusterStrategy(), configuration, creation_cost_increase=0.5
        )
        protocol.remember_current_costs()
        # Only alice's cost rose enough since the previous period.
        protocol._previous_costs["alice"] -= 1.0
        reports, round_result = _reports_of_one_round(protocol)
        assert [request.peer_id for request in round_result.requests] == ["alice"]
        assert reports == 3 - 2

    def test_disabled_creation_drops_every_new_cluster_proposal(self):
        configuration = ClusterConfiguration(
            ["c1", "c2", "c3", "c4"], {"alice": "c1", "bob": "c1", "carol": "c2"}
        )
        protocol = self._protocol(
            NewClusterStrategy(), configuration, allow_cluster_creation=False
        )
        reports, round_result = _reports_of_one_round(protocol)
        assert round_result.quiescent
        assert reports == 3 - 2  # carol stays and reports; alice and bob are dropped

    def test_none_counts_as_a_zero_gain_report(self):
        configuration = ClusterConfiguration(
            ["c1", "c2", "c3"], {"alice": ["c1", "c2"], "bob": "c1", "carol": "c3"}
        )
        protocol = self._protocol(SilentStrategy(), configuration)
        reports, round_result = _reports_of_one_round(protocol)
        assert round_result.quiescent
        assert reports == 4  # alice reports to both of her clusters
