"""Tests for the process-pool sweep executor and result aggregation."""

from __future__ import annotations

import statistics

import pytest

from repro.errors import ConfigurationError
from repro.events import EventHooks
from repro.sweep import SweepSpec, read_jsonl, run_sweep

#: Scenario small enough that one task runs in a few milliseconds.
TINY_SCENARIO = {
    "num_peers": 12,
    "num_categories": 3,
    "documents_per_peer": 4,
    "terms_per_document": 3,
    "category_vocabulary_size": 15,
    "queries_per_peer": 3,
}


def tiny_spec(**overrides) -> SweepSpec:
    values = {
        "strategies": ("selfish", "altruistic"),
        "scale": "quick",
        "overrides": {"scenario_overrides": dict(TINY_SCENARIO)},
        "seeds": (7, 11),
    }
    values.update(overrides)
    return SweepSpec(**values)


def pool(workers: int) -> dict:
    return {"name": "process-pool", "options": {"max_workers": workers}}


class TestDeterminism:
    def test_worker_count_does_not_change_results(self):
        spec = tiny_spec()
        serial = run_sweep(spec, executor="serial")
        pooled = run_sweep(spec, executor=pool(4))
        assert len(serial) == len(pooled) == 4
        assert [task.to_dict() for task in serial.tasks] == [
            task.to_dict() for task in pooled.tasks
        ]
        # byte-identical results, not just approximately equal
        assert [r.to_dict() for r in serial.results] == [r.to_dict() for r in pooled.results]

    def test_rerunning_the_same_spec_is_reproducible(self):
        spec = tiny_spec(seeds=None, replications=3)
        first = run_sweep(spec, executor=pool(2))
        second = run_sweep(spec, executor=pool(3))
        assert [r.to_dict() for r in first.results] == [r.to_dict() for r in second.results]

    def test_results_are_ordered_by_task_index(self):
        result = run_sweep(tiny_spec(), executor=pool(4))
        for task, run in zip(result.tasks, result.results):
            assert run.config["seed"] == task.config["seed"]
            assert run.config["strategy"] == task.config["strategy"]


class TestEvents:
    def test_progress_events_stream_through_hooks(self):
        hooks = EventHooks()
        started, finished, ended = [], [], []
        hooks.on_task_started(started.append)
        hooks.on_task_finished(finished.append)
        hooks.on_sweep_end(ended.append)
        run_sweep(tiny_spec(), executor=pool(2), hooks=hooks)
        assert len(started) == len(finished) == 4
        assert sorted(event.index for event in started) == [0, 1, 2, 3]
        assert sorted(event.index for event in finished) == [0, 1, 2, 3]
        assert sorted(event.completed for event in finished) == [1, 2, 3, 4]
        assert all(event.total == 4 for event in started + finished)
        assert all(event.duration >= 0.0 for event in finished)
        (end_event,) = ended
        assert end_event.total == 4
        assert end_event.workers == 2

    def test_serial_path_emits_the_same_events(self):
        hooks = EventHooks()
        order = []
        hooks.on_task_started(lambda event: order.append(("start", event.index)))
        hooks.on_task_finished(lambda event: order.append(("finish", event.index)))
        run_sweep(tiny_spec(seeds=(7,)), executor="serial", hooks=hooks)
        assert order == [("start", 0), ("finish", 0), ("start", 1), ("finish", 1)]


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        spec = tiny_spec()
        result = run_sweep(spec, executor=pool(2), jsonl_path=str(path))
        loaded_spec, records = read_jsonl(str(path))
        assert loaded_spec == spec
        assert len(records) == len(result.results)
        for record, task, run in zip(records, result.tasks, result.results):
            assert record["task"] == task.to_dict()
            assert record["result"] == run.to_dict()
            assert record["duration"] >= 0.0

    def test_read_jsonl_rejects_non_sweep_files(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"kind": "something-else"}\n', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="missing header"):
            read_jsonl(str(path))


class TestAggregation:
    def test_summarize_pools_replications_per_configuration(self):
        result = run_sweep(tiny_spec(), executor="serial")
        summary = result.summarize(metrics=("rounds",), group_by=("strategy",))
        assert set(summary) == {("selfish",), ("altruistic",)}
        for (strategy,), per_metric in summary.items():
            values = [
                float(run.rounds)
                for task, run in zip(result.tasks, result.results)
                if task.config["strategy"] == strategy
            ]
            stats = per_metric["rounds"]
            assert stats.count == 2
            assert stats.mean == pytest.approx(statistics.mean(values))
            if len(set(values)) > 1:
                assert stats.stddev == pytest.approx(statistics.stdev(values))
            assert stats.ci_low <= stats.mean <= stats.ci_high

    def test_summary_table_renders_groups_and_metrics(self):
        result = run_sweep(tiny_spec(), executor="serial")
        table = result.summary_table(metrics=("final_social_cost",), group_by=("strategy",))
        assert "selfish" in table
        assert "final_social_cost" in table
        assert "ci95 low" in table

    def test_unknown_metric_is_rejected(self):
        result = run_sweep(tiny_spec(seeds=(7,)), executor="serial")
        with pytest.raises(ConfigurationError, match="unknown sweep metric"):
            result.metric_values("not_a_metric")

    def test_extras_are_reachable_as_metrics(self):
        spec = SweepSpec(
            tasks=(
                {
                    "config": {
                        "scale": "quick",
                        "initial": "category",
                        "scenario_overrides": dict(TINY_SCENARIO),
                    },
                    "runner": "maintenance-point",
                    "options": {
                        "update_target": "workload",
                        "update_kind": "updated-peers",
                        "fraction": 0.5,
                    },
                },
            )
        )
        result = run_sweep(spec, executor="serial")
        assert result.metric_values("social_cost_before") == [
            result.results[0].extras["social_cost_before"]
        ]


class TestRunners:
    def test_maintain_runner_runs_periods(self):
        spec = SweepSpec(
            tasks=(
                {
                    "config": {
                        "scale": "quick",
                        "initial": "category",
                        "scenario_overrides": dict(TINY_SCENARIO),
                    },
                    "runner": "maintain",
                    "options": {"periods": 2},
                },
            )
        )
        result = run_sweep(spec, executor="serial")
        (run,) = result.results
        assert run.kind == "maintenance"
        assert run.num_periods == 2

    def test_worker_count_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="max_workers"):
            run_sweep(tiny_spec(), executor=pool(0))
