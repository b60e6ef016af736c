"""Observed mode decides in the batch path exact mode uses.

On a game with a kernel, the selfish, altruistic and hybrid strategies decide
a whole observed batch from the period's arrays: every mover must equal the
per-peer ``propose`` and no peer may be left to per-peer entries.  ``propose``
reads one row of the same arrays, which must equal the per-peer dict
formulas of ``tests/observation_oracle.py`` with ``==``.  The observation is
taken as is and before moves into fresh slots, so the game's clusters
include some the observation never saw and miss some it did.
"""

from __future__ import annotations

import functools

import pytest

from repro.datasets.scenarios import (
    SCENARIO_DIFFERENT_CATEGORY,
    SCENARIO_SAME_CATEGORY,
    SCENARIO_UNIFORM,
    build_scenario,
    initial_configuration,
)
from repro.errors import StrategyError
from repro.experiments.config import ExperimentConfig
from repro.game.model import ClusterGame
from repro.overlay.routing import BroadcastRouter, ProbeKRouter
from repro.strategies.altruistic import AltruisticStrategy
from repro.strategies.base import StrategyContext
from repro.strategies.hybrid import HybridStrategy
from repro.strategies.selfish import SelfishStrategy
from repro.traffic.simulator import observe_period
from tests.conftest import assert_movers_match
from tests.observation_oracle import (
    observe_per_occurrence,
    observed_contributions,
    observed_costs,
)

SCENARIOS = (SCENARIO_SAME_CATEGORY, SCENARIO_DIFFERENT_CATEGORY, SCENARIO_UNIFORM)
INITIALS = ("singletons", "random", "fewer", "more")
ROUTERS = {
    "broadcast": BroadcastRouter,
    "probe-1": functools.partial(ProbeKRouter, k=1),
    "probe-2": functools.partial(ProbeKRouter, k=2),
}
#: Each strategy, and whether its batch must reproduce ``propose``'s gains
#: bit for bit: the hybrid's selfish term comes from the kernel's cost table
#: in the batch and from the cost model per peer, which agree to ~1e-16.
STRATEGIES = {
    "selfish": (lambda: SelfishStrategy(mode="observed"), True),
    "altruistic": (lambda: AltruisticStrategy(mode="observed"), True),
    "hybrid-0.5": (lambda: HybridStrategy(weight=0.5, mode="observed"), False),
    "hybrid-0.2": (lambda: HybridStrategy(weight=0.2, mode="observed"), False),
}


@pytest.fixture(scope="module")
def quick_scenarios():
    """The three paper scenarios at quick scale, read-only for the whole grid."""
    config = ExperimentConfig.quick()
    return config, {scenario: build_scenario(scenario, config.scenario) for scenario in SCENARIOS}


def move_into_fresh_slots(configuration):
    """Moves after the observation: up to three peers into empty slots, one to a neighbour."""
    peer_ids = configuration.peer_ids()
    for peer_id, slot in zip(peer_ids[::9], configuration.empty_clusters()[:3]):
        configuration.move(peer_id, configuration.cluster_of(peer_id), slot)
    mover, host = configuration.cluster_of(peer_ids[1]), configuration.cluster_of(peer_ids[2])
    if mover != host:
        configuration.move(peer_ids[1], mover, host)


@pytest.mark.parametrize("moved", [False, True], ids=["as-observed", "moved-after"])
@pytest.mark.parametrize("router", ROUTERS)
@pytest.mark.parametrize("initial", INITIALS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_observed_batch_matches_per_peer_propose(quick_scenarios, scenario, initial, router, moved):
    config, scenarios = quick_scenarios
    data = scenarios[scenario]
    configuration = initial_configuration(data, initial)
    router = ROUTERS[router](data.network)
    statistics = observe_period(data.network, configuration, router=router)
    records, _ = observe_per_occurrence(data.network, configuration, router)
    if moved:
        observed_clusters = set(configuration.nonempty_clusters())
        move_into_fresh_slots(configuration)
        assert set(configuration.nonempty_clusters()) != observed_clusters
    cost_model = data.network.cost_model(theta=config.theta(), alpha=config.alpha)
    game = ClusterGame(cost_model, configuration, allow_new_clusters=False)
    context = StrategyContext(game=game, statistics=statistics)
    assert game.kernel is not None
    peer_ids = configuration.peer_ids()

    selfish, altruistic = SelfishStrategy(mode="observed"), AltruisticStrategy(mode="observed")
    for peer_id in peer_ids:
        assert selfish.observed_costs(peer_id, context) == observed_costs(
            peer_id, game, records[peer_id]
        )
        assert altruistic.contributions(peer_id, context) == observed_contributions(
            configuration, records[peer_id]
        )

    for name, (make, exact_gains) in STRATEGIES.items():
        strategy = make()
        batch = strategy.propose_all(peer_ids, context)
        assert not batch.proposals, name
        assert_movers_match(
            batch,
            lambda peer_id: strategy.propose(peer_id, context),
            peer_ids,
            abs=None if exact_gains else 1e-9,
        )
        if exact_gains:
            for peer_id, mover in batch.items():
                assert mover.gain == strategy.propose(peer_id, context).gain, (name, peer_id)


@pytest.mark.parametrize("name", STRATEGIES)
def test_a_game_without_a_kernel_goes_peer_by_peer(tiny_network, tiny_configuration, name):
    statistics = observe_period(tiny_network, tiny_configuration)
    game = ClusterGame(tiny_network.cost_model(use_matrix=False), tiny_configuration)
    context = StrategyContext(game=game, statistics=statistics)
    strategy = STRATEGIES[name][0]()
    peer_ids = tiny_configuration.peer_ids()
    batch = strategy.propose_all(peer_ids, context)
    assert game.kernel is None and batch.rows.size == 0
    assert_movers_match(batch, lambda peer_id: strategy.propose(peer_id, context), peer_ids)


class TestObservedBatchErrors:
    @pytest.fixture
    def kernel_game(self, small_scenario):
        configuration = small_scenario.network.singleton_configuration()
        return ClusterGame(small_scenario.network.cost_model(), configuration)

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_batch_without_statistics_is_rejected(self, kernel_game, name):
        strategy = STRATEGIES[name][0]()
        with pytest.raises(StrategyError, match="requires period statistics"):
            strategy.propose_all(
                kernel_game.configuration.peer_ids(), StrategyContext(game=kernel_game)
            )

    def test_statistics_of_another_population_are_rejected(self, kernel_game, tiny_network):
        statistics = observe_period(tiny_network, tiny_network.singleton_configuration())
        context = StrategyContext(game=kernel_game, statistics=statistics)
        with pytest.raises(StrategyError, match="peers of the game's recall matrix"):
            SelfishStrategy(mode="observed").propose_all(
                kernel_game.configuration.peer_ids(), context
            )
