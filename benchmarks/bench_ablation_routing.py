"""Ablation — broadcast routing vs probe-k routing for the observed strategies.

The paper notes that the cluster recall a peer observes depends on the
routing algorithm.  This ablation runs one observation period with broadcast
routing and with probe-k routing (k = 1, 2, 4), then measures how often the
*observed* selfish decision matches the exact (global-knowledge) decision,
how many results the period's ``PeriodStatistics`` saw, and how many
query/result messages each routing policy costs.  Both modes decide every
peer in one ``propose_all`` batch.
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


def targets(strategy, context, peer_ids):
    """Each peer's chosen cluster (its own when it stays), decided in one batch."""
    movers = strategy.propose_all(peer_ids, context)
    configuration = context.game.configuration
    return {
        peer_id: movers[peer_id].target_cluster
        if peer_id in movers
        else configuration.cluster_of(peer_id)
        for peer_id in peer_ids
    }


def run_routing_ablation(config):
    data = build_scenario(SCENARIO_SAME_CATEGORY, config.scenario)
    configuration = initial_configuration(data, "random", seed=config.seed + 13)
    cost_model = data.network.cost_model(theta=config.theta(), alpha=config.alpha)
    game = ClusterGame(cost_model, configuration, allow_new_clusters=False)
    peer_ids = data.peer_ids()
    exact_targets = targets(SelfishStrategy(mode="exact"), StrategyContext(game=game), peer_ids)
    observed_strategy = SelfishStrategy(mode="observed")

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
        observed_targets = targets(observed_strategy, context, peer_ids)
        agreements = sum(
            observed_targets[peer_id] == exact_targets[peer_id] for peer_id in peer_ids
        )
        rows.append(
            (
                label,
                f"{agreements}/{len(peer_ids)}",
                int(statistics.received.sum()),
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
            (
                "routing",
                "observed = exact decisions",
                "results observed",
                "query messages",
                "result messages",
            ),
            rows,
        ),
    )
    by_label = {row[0]: row for row in rows}
    # Broadcast sees everything, so it agrees at least as often as probe-1...
    broadcast_agreement = int(by_label["broadcast"][1].split("/")[0])
    probe1_agreement = int(by_label["probe-1"][1].split("/")[0])
    assert broadcast_agreement >= probe1_agreement
    # ...and observes no more results, but is much cheaper in query messages.
    assert by_label["probe-1"][2] <= by_label["broadcast"][2]
    assert by_label["probe-1"][3] < by_label["broadcast"][3]
