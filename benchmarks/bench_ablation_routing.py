"""Ablation — broadcast routing vs probe-k routing for the observed strategies.

The paper notes that the cluster recall a peer observes depends on the
routing algorithm.  This ablation runs one observation period with broadcast
routing and with probe-k routing (k = 1, 2, 4), then measures how often the
*observed* selfish decision matches the exact (global-knowledge) decision,
and how many query/result messages each routing policy costs.
"""

from __future__ import annotations

from benchmarks.conftest import print_block, run_once
from repro.analysis.reporting import format_table
from repro.datasets.scenarios import SCENARIO_SAME_CATEGORY, build_scenario, initial_configuration
from repro.game.model import ClusterGame
from repro.overlay.messages import MessageBus
from repro.overlay.routing import BroadcastRouter, ProbeKRouter
from repro.strategies.base import StrategyContext
from repro.strategies.selfish import SelfishStrategy
from repro.traffic.simulator import observe_period


def run_routing_ablation(config):
    data = build_scenario(SCENARIO_SAME_CATEGORY, config.scenario)
    configuration = initial_configuration(data, "random", seed=config.seed + 13)
    cost_model = data.network.cost_model(theta=config.theta(), alpha=config.alpha)
    game = ClusterGame(cost_model, configuration, allow_new_clusters=False)
    exact_strategy = SelfishStrategy(mode="exact")
    observed_strategy = SelfishStrategy(mode="observed")
    exact_context = StrategyContext(game=game)
    exact_targets = {
        peer_id: exact_strategy.propose(peer_id, exact_context).target_cluster
        for peer_id in data.peer_ids()
    }

    routers = [("broadcast", lambda network: BroadcastRouter(network))]
    for k in (1, 2, 4):
        routers.append((f"probe-{k}", lambda network, k=k: ProbeKRouter(network, k=k)))

    rows = []
    for label, factory in routers:
        bus = MessageBus()
        statistics = observe_period(
            data.network, configuration, router=factory(data.network), bus=bus
        )
        context = StrategyContext(game=game, statistics=statistics)
        agreements = sum(
            1
            for peer_id in data.peer_ids()
            if observed_strategy.propose(peer_id, context).target_cluster
            == exact_targets[peer_id]
        )
        rows.append(
            (
                label,
                f"{agreements}/{len(data.peer_ids())}",
                bus.count("QueryMessage"),
                bus.count("ResultMessage"),
            )
        )
    return rows


def test_ablation_routing(benchmark, experiment_config):
    rows = run_once(benchmark, run_routing_ablation, experiment_config)
    print_block(
        "Ablation: routing policy vs observed-decision quality",
        format_table(
            ("routing", "observed = exact decisions", "query messages", "result messages"), rows
        ),
    )
    by_label = {row[0]: row for row in rows}
    # Broadcast sees everything, so it agrees at least as often as probe-1...
    broadcast_agreement = int(by_label["broadcast"][1].split("/")[0])
    probe1_agreement = int(by_label["probe-1"][1].split("/")[0])
    assert broadcast_agreement >= probe1_agreement
    # ...but probe-1 is much cheaper in query messages.
    assert by_label["probe-1"][2] < by_label["broadcast"][2]
