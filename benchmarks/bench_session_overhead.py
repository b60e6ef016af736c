"""Facade overhead — `Simulation.run()` versus a hand-wired protocol run.

The `Simulation` facade assembles exactly the objects the hand-wired
quickstart assembles (same builders, same seeds), so the only cost it can
add is the assembly glue: config resolution, registry lookups and the event
hook plumbing inside the protocol loop.  This bench runs both paths at the
selected scale, checks that they produce the identical converged
configuration, and asserts the facade's wall time stays within noise of the
hand-wired run.

Run with::

    REPRO_BENCH_SCALE=benchmark python benchmarks/bench_session_overhead.py
    pytest benchmarks/bench_session_overhead.py

"""

from __future__ import annotations

import time

from repro.datasets.scenarios import SCENARIO_SAME_CATEGORY, build_scenario, initial_configuration
from repro.experiments.config import ExperimentConfig, build_strategy
from repro.protocol.reformulation import ReformulationProtocol
from repro.session import SessionConfig, Simulation

#: The facade may cost at most this factor of the hand-wired wall time.  The
#: protocol rounds dominate both paths; 1.5x plus a small absolute slack keeps
#: the assertion robust on noisy CI boxes while still catching accidental
#: per-round overhead (e.g. quadratic event bookkeeping).
MAX_OVERHEAD_FACTOR = 1.5
ABSOLUTE_SLACK_SECONDS = 0.05
REPETITIONS = 3


def run_hand_wired(config: ExperimentConfig):
    data = build_scenario(SCENARIO_SAME_CATEGORY, config.scenario)
    configuration = initial_configuration(data, "singletons", seed=config.seed + 13)
    cost_model = data.network.cost_model(theta=config.theta(), alpha=config.alpha)
    protocol = ReformulationProtocol(
        cost_model,
        configuration,
        build_strategy("selfish"),
        gain_threshold=config.gain_threshold,
    )
    result = protocol.run(max_rounds=config.max_rounds)
    return result.final_social_cost, configuration.signature()


def run_facade(config: ExperimentConfig):
    simulation = Simulation(
        SessionConfig.from_experiment_config(
            config, scenario=SCENARIO_SAME_CATEGORY, strategy="selfish", initial="singletons"
        )
    )
    result = simulation.run()
    return result.final_social_cost, simulation.configuration.signature()


def _best_of(callable_, *args, repetitions: int = REPETITIONS):
    best = float("inf")
    value = None
    for _ in range(repetitions):
        start = time.perf_counter()
        value = callable_(*args)
        best = min(best, time.perf_counter() - start)
    return best, value


def test_session_overhead(experiment_config):
    from benchmarks.conftest import print_block

    hand_seconds, hand_outcome = _best_of(run_hand_wired, experiment_config)
    facade_seconds, facade_outcome = _best_of(run_facade, experiment_config)

    assert facade_outcome == hand_outcome, (
        "facade and hand-wired runs diverged — the facade must assemble the "
        "identical session, seed for seed"
    )
    budget = hand_seconds * MAX_OVERHEAD_FACTOR + ABSOLUTE_SLACK_SECONDS
    print_block(
        "Session facade overhead",
        "\n".join(
            [
                f"hand-wired best of {REPETITIONS}: {hand_seconds * 1000:.1f} ms",
                f"facade     best of {REPETITIONS}: {facade_seconds * 1000:.1f} ms",
                f"budget (x{MAX_OVERHEAD_FACTOR} + {ABSOLUTE_SLACK_SECONDS * 1000:.0f} ms): "
                f"{budget * 1000:.1f} ms",
            ]
        ),
    )
    assert facade_seconds <= budget, (
        f"facade run took {facade_seconds:.3f}s versus hand-wired {hand_seconds:.3f}s "
        f"(budget {budget:.3f}s)"
    )


def main() -> int:
    from benchmarks.conftest import bench_scale

    config = ExperimentConfig.from_scale(bench_scale())
    hand_seconds, hand_outcome = _best_of(run_hand_wired, config)
    facade_seconds, facade_outcome = _best_of(run_facade, config)
    matches = facade_outcome == hand_outcome
    print(f"scale: {bench_scale()}")
    print(f"hand-wired best of {REPETITIONS}: {hand_seconds * 1000:.1f} ms")
    print(f"facade     best of {REPETITIONS}: {facade_seconds * 1000:.1f} ms")
    print(f"identical outcome: {matches}")
    overhead = facade_seconds / hand_seconds if hand_seconds else float("inf")
    print(f"overhead factor: {overhead:.3f}x")
    ok = matches and facade_seconds <= hand_seconds * MAX_OVERHEAD_FACTOR + ABSOLUTE_SLACK_SECONDS
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
