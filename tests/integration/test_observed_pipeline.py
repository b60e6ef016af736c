"""Integration test of the observation-driven (purely local) decision pipeline.

Observes a period T (broadcast routing), feeds the observed statistics into
the *observed* strategy variants and executes the protocol with them — the
faithful end-to-end path of the paper, as opposed to the oracle path used at
experiment scale.
"""

from __future__ import annotations

import pytest

from repro.game.model import ClusterGame
from repro.protocol.reformulation import ReformulationProtocol
from repro.strategies.altruistic import AltruisticStrategy
from repro.strategies.selfish import SelfishStrategy
from repro.traffic.simulator import observe_period
from tests.conftest import make_small_scenario


@pytest.fixture
def scenario():
    return make_small_scenario()


class TestObservedProtocolRound:
    def test_observed_round_reduces_social_cost(self, scenario):
        from repro.datasets.scenarios import initial_configuration

        configuration = initial_configuration(scenario, "random", seed=4)
        cost_model = scenario.network.cost_model()
        before = cost_model.social_cost(configuration, normalized=True)

        statistics = observe_period(scenario.network, configuration)

        protocol = ReformulationProtocol(
            cost_model, configuration, SelfishStrategy(mode="observed")
        )
        round_result = protocol.run_round(0, statistics=statistics)
        after = cost_model.social_cost(configuration, normalized=True)
        assert round_result.num_granted > 0
        assert after <= before

    def test_observed_and_exact_selfish_mostly_agree_under_broadcast(self, scenario):
        from repro.datasets.scenarios import initial_configuration
        from repro.strategies.base import StrategyContext

        configuration = initial_configuration(scenario, "random", seed=4)
        cost_model = scenario.network.cost_model()
        statistics = observe_period(scenario.network, configuration)

        game = ClusterGame(cost_model, configuration, allow_new_clusters=False)
        context = StrategyContext(game=game, statistics=statistics)
        exact = SelfishStrategy(mode="exact")
        observed = SelfishStrategy(mode="observed")
        agreements = sum(
            1
            for peer_id in scenario.peer_ids()
            if exact.propose(peer_id, context).target_cluster
            == observed.propose(peer_id, context).target_cluster
        )
        assert agreements >= len(scenario.peer_ids()) * 0.6

    def test_observed_altruistic_contributions_drive_a_full_run(self, scenario):
        from repro.datasets.scenarios import initial_configuration

        configuration = initial_configuration(scenario, "random", seed=4)
        cost_model = scenario.network.cost_model()
        strategy = AltruisticStrategy(mode="observed")

        # Alternate observation periods and protocol rounds for a few cycles.
        for _period in range(3):
            statistics = observe_period(scenario.network, configuration)
            protocol = ReformulationProtocol(cost_model, configuration, strategy)
            protocol.run_round(0, statistics=statistics)

        assert sorted(configuration.peer_ids()) == scenario.peer_ids()
