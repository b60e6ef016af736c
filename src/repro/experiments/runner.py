"""Run every experiment and render an EXPERIMENTS report.

``python -m repro.experiments.runner`` (or :func:`run_all` from code)
regenerates Table 1 and Figures 1-4 at the requested scale and produces the
markdown report that ``EXPERIMENTS.md`` is built from: for every table and
figure it lists the paper's qualitative expectation next to the measured
values.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Optional

from repro.analysis.reporting import format_markdown_table
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure1 import Figure1Result, run_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import Figure4Result, run_figure4
from repro.experiments.maintenance import MaintenanceResult
from repro.experiments.table1 import Table1Result, run_table1

__all__ = ["ExperimentSuiteResult", "run_all", "render_report"]


@dataclass
class ExperimentSuiteResult:
    """Results of the full experiment suite."""

    table1: Table1Result
    figure1: Figure1Result
    figure2: MaintenanceResult
    figure3: MaintenanceResult
    figure4: Figure4Result


def run_all(
    config: Optional[ExperimentConfig] = None,
    *,
    workers: int = 1,
    executor: Optional[Any] = None,
) -> ExperimentSuiteResult:
    """Run Table 1 and Figures 1-4 with the given configuration.

    ``workers > 1`` fans each driver's replications out over the sweep
    engine's process pool — or pass *executor* (name / spec / instance,
    taking precedence over *workers*) to pick any registered sweep
    executor; the results are identical to the serial run.
    """
    config = config if config is not None else ExperimentConfig.benchmark()
    return ExperimentSuiteResult(
        table1=run_table1(config, workers=workers, executor=executor),
        figure1=run_figure1(config, workers=workers, executor=executor),
        figure2=run_figure2(config, workers=workers, executor=executor),
        figure3=run_figure3(config, workers=workers, executor=executor),
        figure4=run_figure4(config, workers=workers, executor=executor),
    )


def _figure_series_markdown(result: MaintenanceResult) -> str:
    rows = []
    for curve in result.curves:
        for point in curve.points:
            rows.append(
                (
                    curve.update_kind,
                    curve.strategy,
                    point.fraction,
                    round(point.social_cost_before_maintenance, 3),
                    round(point.social_cost, 3),
                    point.moves,
                )
            )
    return format_markdown_table(
        ("update scenario", "strategy", "fraction", "SCost before", "SCost after", "moves"), rows
    )


def render_report(results: ExperimentSuiteResult, *, config: Optional[ExperimentConfig] = None) -> str:
    """Render the suite's results as the markdown body of EXPERIMENTS.md."""
    config = config if config is not None else ExperimentConfig.benchmark()
    sections = []
    sections.append("# Experiments: paper vs. measured\n")
    sections.append(
        f"Configuration: {config.scenario.num_peers} peers, "
        f"{config.scenario.num_categories} categories, alpha={config.alpha}, "
        f"theta={config.theta_name}.\n"
    )

    sections.append("## Table 1 — fixed query workload and content\n")
    table_rows = [row.as_sequence() for row in results.table1.rows]
    sections.append(
        format_markdown_table(
            ("scenario", "initial", "strategy", "# rounds", "# clusters", "SCost", "WCost", "purity"),
            table_rows,
        )
    )

    sections.append("\n## Figure 1 — cost per protocol round (scenario 1)\n")
    figure1_rows = []
    for strategy, curve in sorted(results.figure1.curves.items()):
        for round_index, value in curve.social_series().items():
            workload_value = curve.workload_series().get(round_index, float("nan"))
            figure1_rows.append((strategy, round_index, round(value, 3), round(workload_value, 3)))
    sections.append(
        format_markdown_table(("strategy", "round", "SCost", "WCost"), figure1_rows)
    )

    sections.append("\n## Figure 2 — social cost after workload updates\n")
    sections.append(_figure_series_markdown(results.figure2))
    sections.append("\n## Figure 3 — social cost after content updates\n")
    sections.append(_figure_series_markdown(results.figure3))

    sections.append("\n## Figure 4 — influence of alpha\n")
    figure4_rows = []
    for curve in results.figure4.curves:
        for fraction, cost in sorted(curve.series().items()):
            figure4_rows.append((curve.alpha, fraction, round(cost, 3)))
    sections.append(
        format_markdown_table(("alpha", "fraction of changed workload", "individual cost"), figure4_rows)
    )
    return "\n".join(sections) + "\n"


def main(argv: Optional[list] = None) -> int:
    """Command-line entry point: run the suite and print (or save) the report."""
    parser = argparse.ArgumentParser(description="Run the full experiment suite")
    parser.add_argument(
        "--scale",
        choices=ExperimentConfig.scales(),
        default="benchmark",
        help="experiment scale preset",
    )
    parser.add_argument("--output", default=None, help="write the markdown report to this file")
    parser.add_argument(
        "--workers", type=int, default=1, help="process count for the sweep engine"
    )
    parser.add_argument(
        "--executor",
        default=None,
        help="sweep executor name (overrides --workers), e.g. process-pool",
    )
    arguments = parser.parse_args(argv)
    config = ExperimentConfig.from_scale(arguments.scale)
    results = run_all(config, workers=arguments.workers, executor=arguments.executor)
    report = render_report(results, config=config)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    else:
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
