"""The experiment drivers running through the sweep engine.

The acceptance bar: fanning a driver's replications out over a process pool
must reproduce the serial (pre-engine) driver numbers exactly — seed for
seed, not approximately.
"""

from __future__ import annotations

from dataclasses import replace

from repro.datasets.scenarios import SCENARIO_SAME_CATEGORY, build_scenario
from repro.events import EventHooks
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure4 import run_figure4
from repro.experiments.maintenance import run_maintenance_experiment
from repro.experiments.table1 import run_table1, run_table1_sweep
from repro.session import SessionConfig, Simulation

SCENARIOS = (SCENARIO_SAME_CATEGORY,)
INITIAL_KINDS = ("singletons", "random")
STRATEGIES = ("selfish", "altruistic")


def serial_table1_rows(config, scenarios=SCENARIOS, initial_kinds=INITIAL_KINDS,
                       strategies=STRATEGIES):
    """The pre-engine serial Table 1 loop: shared scenario data, one process."""
    rows = []
    for scenario in scenarios:
        data = build_scenario(scenario, config.scenario)
        for initial_kind in initial_kinds:
            for strategy_name in strategies:
                simulation = Simulation(
                    SessionConfig.from_experiment_config(
                        config,
                        scenario=data.scenario,
                        strategy=strategy_name,
                        initial=initial_kind,
                    ),
                    data=data,
                )
                result = simulation.run()
                rows.append(
                    (
                        data.scenario,
                        initial_kind,
                        strategy_name,
                        result.converged,
                        result.rounds if result.converged else None,
                        result.cluster_count,
                        result.final_social_cost,
                        result.final_workload_cost,
                        result.purity if result.purity is not None else 0.0,
                    )
                )
    return rows


def row_tuple(row):
    return (
        row.scenario,
        row.initial_kind,
        row.strategy,
        row.converged,
        row.rounds,
        row.clusters,
        row.social_cost,
        row.workload_cost,
        row.purity,
    )


class TestTable1:
    def test_engine_reproduces_the_serial_driver_exactly(self):
        config = ExperimentConfig.quick()
        expected = serial_table1_rows(config)
        result = run_table1(
            config,
            scenarios=SCENARIOS,
            initial_kinds=INITIAL_KINDS,
            strategies=STRATEGIES,
            workers=2,
        )
        assert [row_tuple(row) for row in result.rows] == expected

    def test_multi_seed_sweep_matches_the_serial_driver_seed_for_seed(self):
        """The PR's acceptance criterion, at quick scale with 4 workers."""
        base = ExperimentConfig.quick()
        seeds = (7, 11)
        swept = run_table1_sweep(
            base,
            seeds=seeds,
            scenarios=SCENARIOS,
            initial_kinds=INITIAL_KINDS,
            strategies=STRATEGIES,
            workers=4,
        )
        assert set(swept) == set(seeds)
        for seed in seeds:
            # The serial reference for seed s: the same config carrying s as
            # both the master seed and the scenario build seed — exactly what
            # the sweep's seed application does.
            serial_config = replace(base, seed=seed).with_scenario(seed=seed)
            expected = serial_table1_rows(serial_config)
            assert [row_tuple(row) for row in swept[seed].rows] == expected

    def test_progress_events_reach_driver_callers(self):
        hooks = EventHooks()
        finished = []
        hooks.on_task_finished(lambda event: finished.append(event.index))
        run_table1(
            ExperimentConfig.quick(),
            scenarios=SCENARIOS,
            initial_kinds=("singletons",),
            strategies=STRATEGIES,
            hooks=hooks,
        )
        assert sorted(finished) == [0, 1]


class TestMaintenanceDrivers:
    def test_figure_points_are_identical_across_worker_counts(self):
        config = ExperimentConfig.quick()
        kwargs = dict(
            fractions=(0.0, 1.0),
            strategies=("selfish",),
            update_kinds=("updated-peers",),
        )
        serial = run_maintenance_experiment("workload", config, **kwargs)
        pooled = run_maintenance_experiment("workload", config, workers=2, **kwargs)
        assert len(serial.curves) == len(pooled.curves) == 1
        assert serial.curves[0].points == pooled.curves[0].points

    def test_points_carry_the_before_cost(self):
        config = ExperimentConfig.quick()
        result = run_maintenance_experiment(
            "content",
            config,
            fractions=(1.0,),
            strategies=("selfish",),
            update_kinds=("updated-peers",),
        )
        (point,) = result.curves[0].points
        assert point.fraction == 1.0
        assert point.social_cost_before_maintenance > 0.0


class TestFigure4:
    def test_curves_are_identical_across_worker_counts(self):
        config = ExperimentConfig.quick()
        kwargs = dict(alphas=(0.0, 1.0), fractions=(0.0, 0.6, 1.0))
        serial = run_figure4(config, **kwargs)
        pooled = run_figure4(config, workers=3, **kwargs)
        assert [curve.alpha for curve in serial.curves] == [
            curve.alpha for curve in pooled.curves
        ]
        for serial_curve, pooled_curve in zip(serial.curves, pooled.curves):
            assert serial_curve.points == pooled_curve.points
            assert serial_curve.relocation_fraction == pooled_curve.relocation_fraction
