"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_discover_defaults(self):
        arguments = build_parser().parse_args(["discover"])
        assert arguments.scale == "quick"
        assert arguments.strategy == "selfish"
        assert arguments.initial == "singletons"

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["discover", "--scale", "galactic"])


class TestCommands:
    def test_discover_prints_metrics(self, capsys):
        assert main(["discover", "--scale", "quick"]) == 0
        output = capsys.readouterr().out
        assert "social cost" in output
        assert "clusters" in output

    def test_discover_with_altruistic_strategy(self, capsys):
        assert main(["discover", "--scale", "quick", "--strategy", "altruistic"]) == 0
        assert "altruistic" in capsys.readouterr().out

    def test_maintain_prints_period_table(self, capsys):
        assert main(["maintain", "--scale", "quick", "--periods", "2"]) == 0
        output = capsys.readouterr().out
        assert "SCost before" in output
        assert output.count("\n") >= 4

    def test_bad_router_option_is_a_clean_error(self, capsys):
        arguments = ["traffic", "--scale", "quick", "--router", "probe-k"]
        assert main([*arguments, "--router-options", '{"k": 0}']) == 2
        assert "error: probe-k router k must be an integer >= 1, got 0" in capsys.readouterr().err

    def test_router_options_without_a_router_are_a_clean_error(self, capsys):
        assert main(["traffic", "--scale", "quick", "--router-options", '{"k": 3}']) == 2
        error = capsys.readouterr().err
        assert "error: session config router_options={'k': 3} needs a router" in error

    def test_figure4_command(self, capsys):
        assert main(["figure4", "--scale", "quick"]) == 0
        assert "alpha=1" in capsys.readouterr().out

    def test_report_written_to_file(self, tmp_path, capsys):
        output_file = tmp_path / "report.md"
        assert main(["report", "--scale", "quick", "--output", str(output_file)]) == 0
        content = output_file.read_text(encoding="utf-8")
        assert "## Table 1" in content
        assert "## Figure 4" in content


class TestRegistryDrivenChoices:
    def test_discover_accepts_registered_scenario_spellings(self, capsys):
        assert main(["discover", "--scale", "quick", "--scenario", "uniform"]) == 0
        assert "social cost" in capsys.readouterr().out

    def test_discover_strategy_choices_come_from_the_registry(self):
        from repro.registry import strategy_registry

        parser = build_parser()
        for name in strategy_registry.names():
            arguments = parser.parse_args(["discover", "--strategy", name])
            assert arguments.strategy == name

    def test_baseline_strategy_usable_from_the_cli(self, capsys):
        assert main(["discover", "--scale", "quick", "--strategy", "static"]) == 0
        output = capsys.readouterr().out
        assert "static" in output


class TestSweepCommand:
    def test_sweep_from_flags_prints_progress_and_summary(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "quick",
                    "--strategy",
                    "selfish",
                    "--strategy",
                    "altruistic",
                    "--seeds",
                    "7,11",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "[4/4]" in output
        assert "sweep finished: 4 tasks" in output
        assert "final_social_cost" in output
        assert "ci95 low" in output

    def test_sweep_persists_jsonl(self, tmp_path, capsys):
        output_file = tmp_path / "sweep.jsonl"
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "quick",
                    "--replications",
                    "2",
                    "--workers",
                    "2",
                    "--output",
                    str(output_file),
                    "--no-progress",
                ]
            )
            == 0
        )
        from repro.sweep import read_jsonl

        spec, records = read_jsonl(str(output_file))
        assert spec.replications == 2
        assert len(records) == 2

    def test_sweep_from_spec_file(self, tmp_path, capsys):
        import json

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {"scale": "quick", "strategies": ["selfish"], "seeds": [7]}
            ),
            encoding="utf-8",
        )
        assert main(["sweep", "--spec", str(spec_file), "--no-progress"]) == 0
        assert "selfish" in capsys.readouterr().out

    def test_sweep_rejects_malformed_seeds(self, capsys):
        assert main(["sweep", "--scale", "quick", "--seeds", "seven"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_sweep_spec_file_with_unknown_keys_reports_cleanly(self, tmp_path, capsys):
        import json

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"strategiez": ["selfish"]}), encoding="utf-8")
        assert main(["sweep", "--spec", str(spec_file)]) == 2
        assert "unknown sweep spec keys" in capsys.readouterr().err

    def test_sweep_spec_task_with_unknown_scenario_key_reports_cleanly(
        self, tmp_path, capsys
    ):
        import json

        spec_file = tmp_path / "spec.json"
        task = {"scale": "quick", "scenario_overrides": {"bogus": 1}}
        spec_file.write_text(json.dumps({"tasks": [task]}), encoding="utf-8")
        assert main(["sweep", "--spec", str(spec_file), "--no-progress"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown scenario_overrides keys ['bogus']" in err

    @pytest.mark.parametrize(
        ("options", "named"),
        [({"num_event": 100}, "['num_event']"), ({"after": "bogus"}, "'bogus'")],
    )
    def test_sweep_spec_with_bad_traffic_options_reports_cleanly(
        self, tmp_path, capsys, options, named
    ):
        import json

        spec_file = tmp_path / "spec.json"
        spec = {"scale": "quick", "runner": "traffic", "runner_options": options}
        spec_file.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["sweep", "--spec", str(spec_file), "--no-progress"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    def test_workers_flag_available_on_experiment_commands(self):
        arguments = build_parser().parse_args(["table1", "--workers", "4"])
        assert arguments.workers == 4

    def test_sweep_executor_flag(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "quick",
                    "--strategy",
                    "selfish",
                    "--seeds",
                    "7",
                    "--executor",
                    "serial",
                ]
            )
            == 0
        )
        assert "serial" in capsys.readouterr().out

    def test_sweep_executor_choices_come_from_the_registry(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--executor", "quantum"])
        arguments = build_parser().parse_args(["sweep", "--executor", "process-pool"])
        assert arguments.executor == "process-pool"

    def test_sweep_executor_options_require_executor(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "quick",
                    "--seeds",
                    "7",
                    "--executor-options",
                    '{"max_workers": 2}',
                ]
            )
            == 2
        )
        assert "--executor-options requires --executor" in capsys.readouterr().err

    def test_sweep_store_resumes_without_reexecution(self, tmp_path, capsys):
        store = tmp_path / "store"
        flags = [
            "sweep",
            "--scale",
            "quick",
            "--strategy",
            "selfish",
            "--seeds",
            "7,11",
            "--store",
            str(store),
        ]
        assert main(flags) == 0
        first = capsys.readouterr().out
        assert "(2 executed, 0 loaded)" in first
        assert f"store {str(store)!r}: 2 stored results" in first
        assert main(flags) == 0
        second = capsys.readouterr().out
        assert "(0 executed, 2 loaded)" in second
        assert "loaded from store" in second

    def test_sweep_no_resume_reexecutes(self, tmp_path, capsys):
        store = tmp_path / "store"
        flags = [
            "sweep",
            "--scale",
            "quick",
            "--strategy",
            "selfish",
            "--seeds",
            "7",
            "--store",
            str(store),
            "--no-progress",
        ]
        assert main(flags) == 0
        capsys.readouterr()
        assert main(flags + ["--no-resume"]) == 0
        assert "1 stored results" in capsys.readouterr().out


class TestDynamicsFlags:
    def test_maintain_accepts_an_inline_dynamics_spec(self, capsys):
        assert (
            main(
                [
                    "maintain",
                    "--scale",
                    "quick",
                    "--periods",
                    "2",
                    "--dynamics",
                    '{"model": "churn", "options": {"departures": 2}}',
                ]
            )
            == 0
        )
        assert "SCost before" in capsys.readouterr().out

    def test_maintain_rejects_malformed_dynamics_json(self, capsys):
        assert main(["maintain", "--scale", "quick", "--dynamics", "{nope"]) == 2
        assert "--dynamics expects inline JSON" in capsys.readouterr().err

    def test_missing_dynamics_file_reports_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["maintain", "--scale", "quick", "--dynamics", f"@{missing}"]) == 2
        assert "--dynamics expects inline JSON" in capsys.readouterr().err

    def test_malformed_dynamics_file_reports_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        assert main(["maintain", "--scale", "quick", "--dynamics", f"@{bad}"]) == 2
        assert "--dynamics expects inline JSON" in capsys.readouterr().err

    def test_maintain_reports_unknown_drift_models_cleanly(self, capsys):
        assert (
            main(["maintain", "--scale", "quick", "--dynamics", '{"model": "quantum"}'])
            == 2
        )
        assert "drift model" in capsys.readouterr().err

    def test_sweep_dynamics_axis_with_maintain_runner(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "quick",
                    "--runner",
                    "maintain",
                    "--runner-options",
                    '{"periods": 1}',
                    "--seeds",
                    "7",
                    "--dynamics",
                    '{"model": "workload-full", "options": {"peer_fraction": 0.5}}',
                    "--dynamics",
                    '{"model": "none"}',
                    "--no-progress",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "sweep finished" not in output  # --no-progress suppresses it
        assert "final_social_cost" in output

    def test_sweep_dynamics_from_file(self, tmp_path, capsys):
        import json

        spec_file = tmp_path / "drift.json"
        spec_file.write_text(
            json.dumps({"model": "churn", "options": {"departures": 1}}),
            encoding="utf-8",
        )
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "quick",
                    "--runner",
                    "maintain",
                    "--seeds",
                    "7",
                    "--dynamics",
                    f"@{spec_file}",
                    "--no-progress",
                ]
            )
            == 0
        )
        assert "final_social_cost" in capsys.readouterr().out


class TestFaultToleranceFlags:
    def test_parser_defaults(self):
        arguments = build_parser().parse_args(["sweep"])
        assert arguments.retries is None
        assert arguments.task_timeout is None
        assert arguments.faults is None
        assert arguments.verify_store is False
        assert arguments.purge_corrupt is False

    def test_retries_recover_an_injected_fault(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "quick",
                    "--strategy",
                    "selfish",
                    "--seeds",
                    "7",
                    "--retries",
                    "1",
                    "--faults",
                    '{"rules": [{"fault": "task-exception", "index": 0, "attempts": [1]}]}',
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "attempt 1 failed" in output
        assert "retrying as attempt 2" in output
        assert "sweep finished: 1 tasks (1 executed, 0 loaded)" in output
        assert "quarantined" not in output

    def test_exhausted_retries_print_the_quarantine_summary(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "quick",
                    "--strategy",
                    "selfish",
                    "--strategy",
                    "altruistic",
                    "--seeds",
                    "7",
                    "--faults",
                    '{"rules": [{"fault": "task-exception", "index": 1}]}',
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "quarantined after 1 attempt" in output
        assert "(1 executed, 0 loaded, 1 quarantined)" in output
        assert "1 task quarantined: 1" in output

    def test_a_task_that_keeps_killing_its_worker_is_quarantined_alone(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "quick",
                    "--strategy",
                    "selfish",
                    "--strategy",
                    "altruistic",
                    "--initial",
                    "singletons",
                    "--initial",
                    "random",
                    "--seeds",
                    "7,11",
                    "--executor",
                    "process-pool",
                    "--executor-options",
                    '{"max_workers": 4}',
                    "--faults",
                    '{"rules": [{"fault": "worker-kill", "index": 2, '
                    '"attempts": [1, 2, 3, 4]}]}',
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "sweep finished: 8 tasks (7 executed, 0 loaded, 1 quarantined)" in output
        assert "1 task quarantined: 2" in output.splitlines()

    def test_malformed_faults_json_reports_cleanly(self, capsys):
        assert main(["sweep", "--scale", "quick", "--seeds", "7", "--faults", "{nope"]) == 2
        assert "--faults expects inline JSON" in capsys.readouterr().err

    def test_task_timeout_flag_is_accepted(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "quick",
                    "--strategy",
                    "selfish",
                    "--seeds",
                    "7",
                    "--task-timeout",
                    "120",
                    "--no-progress",
                ]
            )
            == 0
        )
        assert "final_social_cost" in capsys.readouterr().out


class TestVerifyStoreFlag:
    def _fill_store(self, store, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "quick",
                    "--strategy",
                    "selfish",
                    "--seeds",
                    "7,11",
                    "--store",
                    str(store),
                    "--no-progress",
                ]
            )
            == 0
        )
        capsys.readouterr()

    def test_clean_store_verifies_ok(self, tmp_path, capsys):
        store = tmp_path / "store"
        self._fill_store(store, capsys)
        assert main(["sweep", "--store", str(store), "--verify-store"]) == 0
        assert "2 entries checked, 0 corrupt, 0 purged" in capsys.readouterr().out

    def test_corrupt_entry_reported_and_purged(self, tmp_path, capsys):
        from repro.sweep import ResultStore

        store = tmp_path / "store"
        self._fill_store(store, capsys)
        store_obj = ResultStore(store)
        digest = next(iter(store_obj.task_hashes()))
        store_obj.task_path(digest).write_text("junk", encoding="utf-8")

        assert main(["sweep", "--store", str(store), "--verify-store"]) == 1
        output = capsys.readouterr().out
        assert f"corrupt store entry {digest[:12]}" in output
        assert "1 corrupt, 0 purged" in output

        assert (
            main(["sweep", "--store", str(store), "--verify-store", "--purge-corrupt"])
            == 0
        )
        assert "1 corrupt, 1 purged" in capsys.readouterr().out
        assert main(["sweep", "--store", str(store), "--verify-store"]) == 0

    def test_verify_store_requires_a_store(self, capsys):
        assert main(["sweep", "--verify-store"]) == 2
        assert "--verify-store requires --store" in capsys.readouterr().err


class TestSweepStatusAndPrune:
    def _populated_store(self, tmp_path):
        store = tmp_path / "store"
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "quick",
                    "--strategy",
                    "selfish",
                    "--seeds",
                    "7",
                    "--store",
                    str(store),
                    "--no-progress",
                ]
            )
            == 0
        )
        return store

    def test_status_reports_counts(self, tmp_path, capsys):
        store = self._populated_store(tmp_path)
        capsys.readouterr()
        assert main(["sweep", "--status", "--store", str(store)]) == 0
        output = capsys.readouterr().out
        assert "pending tasks" in output
        assert "stored results" in output
        assert "workers live" in output

    def test_status_lists_workers_with_liveness(self, tmp_path, capsys):
        from repro.sweep.queue import TaskQueue

        store = self._populated_store(tmp_path)
        TaskQueue(store).register_worker("w1")
        capsys.readouterr()
        assert main(["sweep", "--status", "--store", str(store)]) == 0
        assert "worker w1: live" in capsys.readouterr().out

    def test_status_requires_a_store(self, capsys):
        assert main(["sweep", "--status"]) == 2
        assert "--status requires --store" in capsys.readouterr().err

    def test_prune_store_reports_removals(self, tmp_path, capsys):
        import os
        import time as time_module

        from repro.sweep.queue import TaskQueue

        store = self._populated_store(tmp_path)
        queue = TaskQueue(store)
        queue.register_worker("ghost")
        past = time_module.time() - 7200
        os.utime(queue.workers_dir / "ghost.json", (past, past))
        capsys.readouterr()
        assert main(["sweep", "--prune-store", "--store", str(store)]) == 0
        output = capsys.readouterr().out
        assert "pruned" in output
        assert "1 worker files" in output
        assert not (queue.workers_dir / "ghost.json").exists()

    def test_prune_store_requires_a_store(self, capsys):
        assert main(["sweep", "--prune-store"]) == 2
        assert "--prune-store requires --store" in capsys.readouterr().err


class TestSweepWorkerCommand:
    def test_parser_defaults(self):
        arguments = build_parser().parse_args(["sweep-worker", "--store", "s"])
        assert arguments.store == "s"
        assert arguments.worker_id is None
        assert arguments.poll_interval == 0.2
        assert arguments.lease_timeout is None
        assert arguments.drain is False
        assert arguments.max_tasks is None

    def test_store_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep-worker"])

    def test_drain_on_an_empty_store_exits_cleanly(self, tmp_path, capsys):
        # main() marks the process as a worker; undo it so later tests in
        # this interpreter keep the in-process fault semantics.
        import repro.sweep.faults as faults

        try:
            code = main(
                ["sweep-worker", "--store", str(tmp_path / "store"), "--drain"]
            )
        finally:
            faults._IN_WORKER = False
        assert code == 0
        assert "0 tasks executed" in capsys.readouterr().out

    def test_worker_drains_queued_tasks_into_the_store(self, tmp_path, capsys):
        from repro.sweep import ResultStore, SweepSpec
        from repro.sweep.queue import QueueEntry, TaskQueue
        from repro.sweep.store import task_hash

        spec = SweepSpec(
            strategies=("selfish",),
            scale="quick",
            seeds=(7,),
            overrides={
                "scenario_overrides": {
                    "num_peers": 12,
                    "num_categories": 3,
                    "documents_per_peer": 4,
                    "terms_per_document": 3,
                    "category_vocabulary_size": 15,
                    "queries_per_peer": 3,
                }
            },
        )
        task = spec.validate()[0]
        store = ResultStore(tmp_path / "store")
        queue = TaskQueue(store.root)
        queue.write_config({})
        queue.enqueue(
            QueueEntry(task=task.to_dict(), task_hash=task_hash(task), index=task.index)
        )
        import repro.sweep.faults as faults

        try:
            code = main(
                ["sweep-worker", "--store", str(store.root), "--drain", "--max-tasks", "1"]
            )
        finally:
            faults._IN_WORKER = False
        assert code == 0
        assert "1 task executed" in capsys.readouterr().out
        assert store.get(task_hash(task)) is not None
        assert queue.empty()
