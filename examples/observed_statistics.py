"""Observation-driven relocation: decide from cid-annotated results only.

The paper's strategies are defined over quantities a peer can observe
locally: every query result is annotated with the cluster id (cid) that
provided it, and every peer tracks how much it serves queries coming from
each cluster.  This example observes one period ``T`` (``observe_period``:
every recorded query occurrence routed once) into a ``PeriodStatistics`` —
integer arrays with one row per peer and one column per non-empty cluster —
and then lets peers decide with the *observed* variants of the selfish and
altruistic strategies, comparing the decisions against the exact
(global-knowledge) variants.  Both modes decide every peer in one
``propose_all`` batch.

It also shows what happens when routing is restricted (probe-k router): the
observed recall under-estimates clusters the query never reached.

Run with::

    python examples/observed_statistics.py
"""

from __future__ import annotations

from repro import (
    SCENARIO_SAME_CATEGORY,
    BroadcastRouter,
    ClusterGame,
    ExperimentConfig,
    MessageBus,
    ProbeKRouter,
    build_scenario,
    initial_configuration,
    observe_period,
)
from repro.strategies import AltruisticStrategy, SelfishStrategy, StrategyContext


def run_period(data, configuration, router):
    """One observation period: the period's statistics and the message bus."""
    bus = MessageBus()
    statistics = observe_period(data.network, configuration, router=router, bus=bus)
    return statistics, bus


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


def agreement(first, second):
    return sum(first[peer_id] == second[peer_id] for peer_id in first)


def main() -> None:
    config = ExperimentConfig.quick()
    data = build_scenario(SCENARIO_SAME_CATEGORY, config.scenario)
    configuration = initial_configuration(data, "random", seed=23)
    cost_model = data.network.cost_model(theta=config.theta(), alpha=config.alpha)
    game = ClusterGame(cost_model, configuration, allow_new_clusters=False)
    peer_ids = data.peer_ids()

    statistics, bus = run_period(data, configuration, BroadcastRouter(data.network))
    print(
        "period with broadcast routing: "
        f"{statistics.issued.sum()} queries routed, "
        f"{statistics.received.sum()} results, "
        f"{bus.total()} messages, "
        f"{statistics.received.shape[1]} clusters observed"
    )

    context = StrategyContext(game=game, statistics=statistics)
    exact_selfish = targets(SelfishStrategy(mode="exact"), context, peer_ids)
    observed_selfish = targets(SelfishStrategy(mode="observed"), context, peer_ids)
    exact_altruistic = targets(AltruisticStrategy(mode="exact"), context, peer_ids)
    observed_altruistic = targets(AltruisticStrategy(mode="observed"), context, peer_ids)
    print(
        f"observed vs exact target agreement (broadcast): "
        f"selfish {agreement(exact_selfish, observed_selfish)}/{len(peer_ids)}, "
        f"altruistic {agreement(exact_altruistic, observed_altruistic)}/{len(peer_ids)}"
    )

    statistics_k, bus_k = run_period(data, configuration, ProbeKRouter(data.network, k=2))
    context_k = StrategyContext(game=game, statistics=statistics_k)
    probed_selfish = targets(SelfishStrategy(mode="observed"), context_k, peer_ids)
    print(
        f"period with probe-2 routing: {bus_k.total()} messages "
        f"(vs {bus.total()} for broadcast), {statistics_k.received.sum()} results; "
        f"selfish agreement drops to {agreement(exact_selfish, probed_selfish)}/{len(peer_ids)}"
    )


if __name__ == "__main__":
    main()
