"""Cluster discovery: do the local strategies rediscover the topic structure?

The paper observes (Section 4.1) that when the data distribution permits it,
the relocation strategies can be used to *discover* clusters, not just to
maintain them.  This example starts from a random assignment of peers to
clusters and compares three ways of reorganising the overlay:

* the selfish relocation strategy,
* the altruistic relocation strategy,
* the centralised global re-clustering baseline (k-medoids over content).

For each it reports the normalised social cost, the number of clusters and
the cluster purity against the ground-truth document categories (which the
algorithms themselves never see).

Run with::

    python examples/cluster_discovery.py
"""

from __future__ import annotations

from repro import (
    SCENARIO_SAME_CATEGORY,
    ExperimentConfig,
    GlobalReclustering,
    SessionConfig,
    Simulation,
    build_scenario,
)
from repro.analysis import cluster_purity


def main() -> None:
    config = ExperimentConfig.quick()
    data = build_scenario(SCENARIO_SAME_CATEGORY, config.scenario)
    cost_model = data.network.cost_model(theta=config.theta(), alpha=config.alpha)

    # Every session below starts from the same seeded random assignment.
    session = SessionConfig.from_experiment_config(config, initial="random")
    baseline_configuration = Simulation(session, data=data).configuration
    print("starting point (random clusters):")
    print(
        "  social cost",
        round(cost_model.social_cost(baseline_configuration, normalized=True), 3),
        "| purity",
        round(cluster_purity(baseline_configuration, data.data_categories), 3),
    )

    for strategy_name in ("selfish", "altruistic"):
        simulation = Simulation(session, data=data, strategy=strategy_name)
        result = simulation.run()
        print(f"{strategy_name} strategy:")
        print(
            f"  converged={result.converged} rounds={result.rounds}"
            f" clusters={result.cluster_count}"
        )
        print(
            "  social cost",
            round(result.final_social_cost, 3),
            "| purity",
            round(result.purity, 3),
        )

    reclustering = GlobalReclustering(num_clusters=config.scenario.num_categories, seed=5)
    reclustered = reclustering.recluster(data.network)
    print("global re-clustering baseline:")
    print(
        "  social cost",
        round(cost_model.social_cost(reclustered.configuration, normalized=True), 3),
        "| purity",
        round(cluster_purity(reclustered.configuration, data.data_categories), 3),
        "| messages",
        reclustered.messages,
    )


if __name__ == "__main__":
    main()
