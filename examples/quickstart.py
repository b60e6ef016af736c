"""Quickstart: form clusters with the selfish relocation strategy.

Builds a small synthetic scenario (peers whose data and queries fall into the
same category), starts from the worst possible overlay (every peer alone in
its own cluster) and runs the reformulation protocol with the selfish
strategy until no peer wants to move any more.

The run is driven through the :class:`repro.Simulation` facade: one
declarative :class:`repro.SessionConfig` selects every component (scenario,
strategy, initial configuration, theta, scale) by registry name, and the
per-round costs are observed live through the event hooks instead of being
read from post-hoc trace lists.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import SessionConfig, Simulation


def main() -> None:
    simulation = Simulation(
        SessionConfig(
            scenario="same_category",
            strategy="selfish",
            scale="quick",
            initial="singletons",
        )
    )

    print(
        f"peers: {len(simulation.network)}, "
        f"categories: {simulation.experiment_config.scenario.num_categories}"
    )
    print(
        "initial social cost:",
        round(simulation.cost_model.social_cost(simulation.configuration, normalized=True), 3),
        f"({simulation.configuration.num_nonempty_clusters()} clusters)",
    )

    simulation.hooks.on_round_end(
        lambda event: print(f"  round {event.round_number:2d}: social cost = {event.social_cost:.3f}")
    )
    result = simulation.run()

    print(f"converged: {result.converged} after {result.rounds} rounds")
    print(
        "final:",
        result.cluster_count,
        "clusters, social cost",
        round(result.final_social_cost, 3),
        "workload cost",
        round(result.final_workload_cost, 3),
    )
    print("as JSON:", result.to_json(indent=None)[:120], "...")


# Low-level API: the facade assembles exactly this, seed for seed.
def main_low_level() -> None:
    from repro import (
        SCENARIO_SAME_CATEGORY,
        ExperimentConfig,
        ReformulationProtocol,
        SelfishStrategy,
        build_scenario,
        initial_configuration,
    )

    config = ExperimentConfig.quick()
    data = build_scenario(SCENARIO_SAME_CATEGORY, config.scenario)
    configuration = initial_configuration(data, "singletons")
    cost_model = data.network.cost_model(theta=config.theta(), alpha=config.alpha)
    protocol = ReformulationProtocol(cost_model, configuration, SelfishStrategy())
    result = protocol.run(max_rounds=config.max_rounds)
    print(f"low-level run: converged={result.converged}, "
          f"social cost={result.final_social_cost:.3f}")


if __name__ == "__main__":
    main()
    main_low_level()
