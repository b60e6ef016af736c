"""Observation-driven relocation: decide from cid-annotated results only.

The paper's strategies are defined over quantities a peer can observe
locally: every query result is annotated with the cluster id (cid) that
provided it, and every peer tracks how much it serves queries coming from
each cluster.  This example observes one period ``T`` (``observe_period``:
every recorded query occurrence routed once) and then lets peers decide with
the *observed* variants of the selfish and altruistic strategies, comparing
the decisions against the exact (global-knowledge) variants.

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
    """One observation period: the per-peer statistics and the message bus."""
    bus = MessageBus()
    statistics = observe_period(data.network, configuration, router=router, bus=bus)
    return statistics, bus


def main() -> None:
    config = ExperimentConfig.quick()
    data = build_scenario(SCENARIO_SAME_CATEGORY, config.scenario)
    configuration = initial_configuration(data, "random", seed=23)
    cost_model = data.network.cost_model(theta=config.theta(), alpha=config.alpha)
    game = ClusterGame(cost_model, configuration, allow_new_clusters=False)

    statistics, bus = run_period(data, configuration, BroadcastRouter(data.network))
    trackers = [stats.recall_tracker for stats in statistics.values()]
    print(
        "period with broadcast routing: "
        f"{sum(tracker.queries_observed() for tracker in trackers)} queries routed, "
        f"{sum(tracker.total_results() for tracker in trackers)} results, "
        f"{bus.total()} messages"
    )

    context = StrategyContext(game=game, statistics=statistics)
    exact_selfish = SelfishStrategy(mode="exact")
    observed_selfish = SelfishStrategy(mode="observed")
    exact_altruistic = AltruisticStrategy(mode="exact")
    observed_altruistic = AltruisticStrategy(mode="observed")

    agree_selfish = 0
    agree_altruistic = 0
    peer_ids = data.peer_ids()
    for peer_id in peer_ids:
        if (
            exact_selfish.propose(peer_id, context).target_cluster
            == observed_selfish.propose(peer_id, context).target_cluster
        ):
            agree_selfish += 1
        if (
            exact_altruistic.propose(peer_id, context).target_cluster
            == observed_altruistic.propose(peer_id, context).target_cluster
        ):
            agree_altruistic += 1
    print(
        f"observed vs exact target agreement (broadcast): "
        f"selfish {agree_selfish}/{len(peer_ids)}, altruistic {agree_altruistic}/{len(peer_ids)}"
    )

    statistics_k, bus_k = run_period(data, configuration, ProbeKRouter(data.network, k=2))
    context_k = StrategyContext(game=game, statistics=statistics_k)
    agree_probe = sum(
        1
        for peer_id in peer_ids
        if observed_selfish.propose(peer_id, context_k).target_cluster
        == exact_selfish.propose(peer_id, context).target_cluster
    )
    print(
        f"period with probe-2 routing: {bus_k.total()} messages "
        f"(vs {bus.total()} for broadcast); "
        f"selfish agreement drops to {agree_probe}/{len(peer_ids)}"
    )


if __name__ == "__main__":
    main()
