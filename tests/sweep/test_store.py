"""Tests for the content-addressed result store: hashing, round-trips,
resume after an interrupted sweep, and JSONL-vs-store equality."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from repro.errors import ConfigurationError
from repro.events import EventHooks
from repro.sweep import ResultStore, SweepResult, SweepSpec, read_jsonl, run_sweep
from repro.sweep.executors import ProcessPoolSweepExecutor, SerialExecutor
from repro.sweep.spec import SweepTask
from repro.sweep.store import StoredResult, canonical_json, task_hash

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


class TestTaskHash:
    def test_hash_is_hex_sha256(self):
        digest = task_hash(tiny_spec().validate()[0])
        assert len(digest) == 64
        int(digest, 16)

    def test_hash_ignores_the_task_index(self):
        task = tiny_spec().validate()[0]
        renumbered = SweepTask(
            index=99,
            config=dict(task.config),
            runner=task.runner,
            options=dict(task.options),
            seed=task.seed,
        )
        assert task_hash(renumbered) == task_hash(task)

    def test_equal_work_hashes_equal_across_spec_shapes(self):
        # The same (config, seed) reached through a 2-strategy grid and
        # through a single-strategy grid is the same stored work.
        full = tiny_spec().validate()
        narrow = tiny_spec(strategies=("selfish",)).validate()
        assert {task_hash(t) for t in narrow} <= {task_hash(t) for t in full}

    def test_registry_aliases_hash_identically(self):
        base = tiny_spec(strategies=("selfish",), seeds=(7,)).validate()[0]
        aliased_config = dict(base.config)
        aliased_config["scenario"] = "scenario1"  # alias of same-category
        aliased = SweepTask(
            index=0, config=aliased_config, runner="discovery", seed=base.seed
        )
        assert base.runner == "discover"
        assert task_hash(aliased) == task_hash(base)

    def test_different_seeds_hash_differently(self):
        tasks = tiny_spec(strategies=("selfish",)).validate()
        assert task_hash(tasks[0]) != task_hash(tasks[1])

    def test_hash_is_stable_across_processes(self):
        import os
        from pathlib import Path

        import repro

        task = tiny_spec().validate()[0]
        script = (
            "import json, sys\n"
            "from repro.sweep.spec import SweepTask\n"
            "from repro.sweep.store import task_hash\n"
            "task = SweepTask.from_dict(json.loads(sys.stdin.read()))\n"
            "print(task_hash(task))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (
                str(Path(repro.__file__).resolve().parents[1]),
                env.get("PYTHONPATH"),
            )
            if part
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(task.to_dict()),
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert completed.stdout.strip() == task_hash(task)

    def test_canonical_json_is_key_sorted_and_ascii(self):
        rendered = canonical_json({"b": 1, "a": "é"})
        assert rendered == '{"a":"\\u00e9","b":1}'


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec(strategies=("selfish",), seeds=(7,))
        sweep = run_sweep(spec)
        task = sweep.tasks[0]
        digest = store.put(task, sweep.results[0], sweep.task_durations[0])
        assert task in store
        assert digest in store
        assert len(store) == 1
        assert list(store.task_hashes()) == [digest]
        stored = store.get(task)
        assert isinstance(stored, StoredResult)
        assert stored.task_hash == digest
        assert stored.result.to_dict() == sweep.results[0].to_dict()
        assert stored.duration == sweep.task_durations[0]

    def test_missing_and_corrupt_entries_read_as_none(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        task = tiny_spec().validate()[0]
        assert store.get(task) is None
        assert task not in store
        path = store.task_path(task_hash(task))
        path.parent.mkdir(parents=True)
        path.write_text("{ half a record", encoding="utf-8")
        assert store.get(task) is None

    def test_from_any_coercions(self, tmp_path):
        assert ResultStore.from_any(None) is None
        store = ResultStore(tmp_path)
        assert ResultStore.from_any(store) is store
        assert ResultStore.from_any(str(tmp_path)).root == tmp_path
        with pytest.raises(ConfigurationError):
            ResultStore.from_any(42)

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec(strategies=("selfish",), seeds=(7,))
        run_sweep(spec, store=store)
        leftovers = [
            path
            for path in (tmp_path / "store").rglob("*")
            if path.is_file() and path.suffix not in {".json", ".pkl"}
        ]
        assert leftovers == []


class TestResume:
    @pytest.mark.parametrize(
        "executor, seeds",
        (
            pytest.param(SerialExecutor(), (7, 11), id="serial"),
            pytest.param(ProcessPoolSweepExecutor(max_workers=2), (7, 11), id="process-pool"),
            # Five pending tasks: more than the pool's 4-attempt window.
            pytest.param(
                ProcessPoolSweepExecutor(max_workers=2),
                (7, 11, 13, 17, 19),
                id="process-pool-refill",
            ),
        ),
    )
    def test_interrupted_sweep_resumes_exactly_the_missing_subset(
        self, tmp_path, executor, seeds
    ):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec(seeds=seeds)
        uninterrupted = run_sweep(spec)  # reference, no store involved

        # "Kill" the sweep half-way: only the selfish half of the grid ran.
        partial = run_sweep(tiny_spec(strategies=("selfish",), seeds=seeds), store=store)
        assert partial.executed == len(seeds)

        skipped, loaded_events = [], []
        hooks = EventHooks()
        hooks.on_task_skipped(lambda event: skipped.append(event.index))
        hooks.on_task_loaded(lambda event: loaded_events.append(event))
        resumed = run_sweep(spec, executor=executor, store=store, hooks=hooks)

        assert resumed.loaded == len(seeds)
        assert resumed.executed == len(seeds)
        assert skipped == [
            task.index for task in resumed.tasks if task.config["strategy"] == "selfish"
        ]
        assert len(loaded_events) == len(seeds)
        assert [r.to_dict() for r in resumed.results] == [
            r.to_dict() for r in uninterrupted.results
        ]

    def test_a_fresh_store_gains_only_tasks_and_quarantine(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        plan = {"rules": [{"fault": "task-exception", "index": 0, "attempts": []}]}
        run_sweep(
            tiny_spec(),
            executor=ProcessPoolSweepExecutor(max_workers=2),
            store=store,
            faults=plan,
        )
        assert sorted(path.name for path in store.root.iterdir()) == ["quarantine", "tasks"]

    def test_a_distributed_store_gains_only_tasks_and_the_queue(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_sweep(
            tiny_spec(seeds=(7,)),
            executor={"name": "distributed", "options": {"workers": 1, "poll_interval": 0.02}},
            store=store,
        )
        assert sorted(path.name for path in store.root.iterdir()) == ["queue", "tasks"]

    def test_second_run_executes_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec()
        first = run_sweep(spec, store=store)
        assert first.executed == len(first) and first.loaded == 0
        second = run_sweep(spec, store=store)
        assert second.executed == 0 and second.loaded == len(second)
        assert [r.to_dict() for r in second.results] == [
            r.to_dict() for r in first.results
        ]

    def test_deleting_one_entry_reruns_exactly_that_task(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec()
        first = run_sweep(spec, store=store)
        victim = first.tasks[2]
        store.task_path(task_hash(victim)).unlink()
        second = run_sweep(spec, store=store)
        assert second.executed == 1 and second.loaded == len(second) - 1
        assert [r.to_dict() for r in second.results] == [
            r.to_dict() for r in first.results
        ]

    def test_no_resume_reexecutes_but_still_persists(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec(strategies=("selfish",), seeds=(7,))
        run_sweep(spec, store=store)
        again = run_sweep(spec, store=store, resume=False)
        assert again.executed == len(again) and again.loaded == 0
        assert len(store) == 1

    def test_loaded_counts_keep_the_completed_counter_monotone(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec()
        run_sweep(tiny_spec(strategies=("selfish",)), store=store)
        completed = []
        hooks = EventHooks()
        hooks.on_task_loaded(lambda event: completed.append(event.completed))
        hooks.on_task_finished(lambda event: completed.append(event.completed))
        result = run_sweep(spec, store=store, hooks=hooks)
        assert completed == list(range(1, len(result) + 1))

    def test_sweep_end_event_reports_executed_and_loaded(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec()
        run_sweep(tiny_spec(strategies=("altruistic",)), store=store)
        captured = []
        hooks = EventHooks()
        hooks.on_sweep_end(lambda event: captured.append(event))
        run_sweep(spec, store=store, hooks=hooks)
        (event,) = captured
        assert event.total == 4
        assert event.loaded == 2
        assert event.executed == 2
        assert event.executor == "serial"


class TestJsonlVsStore:
    def test_store_backed_run_writes_identical_task_records(self, tmp_path):
        spec = tiny_spec()
        plain_path = tmp_path / "plain.jsonl"
        stored_path = tmp_path / "stored.jsonl"
        run_sweep(spec, jsonl_path=str(plain_path))
        run_sweep(spec, jsonl_path=str(stored_path), store=str(tmp_path / "store"))

        plain_spec, plain_records = read_jsonl(str(plain_path))
        stored_spec, stored_records = read_jsonl(str(stored_path))
        assert plain_spec == stored_spec

        def strip_durations(records):
            return [
                {key: value for key, value in record.items() if key != "duration"}
                for record in records
            ]

        assert strip_durations(stored_records) == strip_durations(plain_records)

    def test_resumed_jsonl_equals_uninterrupted_jsonl(self, tmp_path):
        spec = tiny_spec()
        store = str(tmp_path / "store")
        reference_path = tmp_path / "reference.jsonl"
        resumed_path = tmp_path / "resumed.jsonl"
        run_sweep(spec, jsonl_path=str(reference_path))
        run_sweep(tiny_spec(seeds=(7,)), store=store)  # interrupted half
        run_sweep(spec, store=store, jsonl_path=str(resumed_path))
        _, reference_records = read_jsonl(str(reference_path))
        _, resumed_records = read_jsonl(str(resumed_path))
        assert [record["result"] for record in resumed_records] == [
            record["result"] for record in reference_records
        ]
        assert [record["task"] for record in resumed_records] == [
            record["task"] for record in reference_records
        ]

    def test_from_store_merges_a_fully_sharded_grid(self, tmp_path):
        store = str(tmp_path / "store")
        spec = tiny_spec()
        # Two "shards", each half of the grid, filling one shared store.
        run_sweep(tiny_spec(strategies=("selfish",)), store=store)
        run_sweep(tiny_spec(strategies=("altruistic",)), store=store)
        merged = SweepResult.from_store(spec, store)
        reference = run_sweep(spec)
        assert merged.loaded == len(merged) == 4
        assert merged.executed == 0
        assert [r.to_dict() for r in merged.results] == [
            r.to_dict() for r in reference.results
        ]

    def test_from_store_names_missing_tasks(self, tmp_path):
        store = str(tmp_path / "store")
        run_sweep(tiny_spec(strategies=("selfish",)), store=store)
        with pytest.raises(ConfigurationError, match="missing 2 of 4"):
            SweepResult.from_store(tiny_spec(), store)

    def test_from_store_requires_a_store(self):
        with pytest.raises(ConfigurationError, match="needs a store"):
            SweepResult.from_store(tiny_spec(), None)


class TestQuarantineTier:
    def _failure(self, digest):
        from repro.sweep.faults import TaskFailure

        return TaskFailure(
            index=0,
            task_hash=digest,
            attempts=2,
            error_type="ValueError",
            message="boom",
            kind="exception",
            injected=False,
            traceback="",
        )

    def test_put_get_clear_failure_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        task = tiny_spec().validate()[0]
        digest = task_hash(task)
        assert store.get_failure(task) is None
        store.put_failure(task, self._failure(digest))
        recorded = store.get_failure(task)
        assert recorded is not None and recorded.error_type == "ValueError"
        assert list(store.failure_hashes()) == [digest]
        store.clear_failure(task)
        assert store.get_failure(task) is None
        assert list(store.failure_hashes()) == []

    def test_put_supersedes_a_quarantine_record(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec(strategies=("selfish",), seeds=(7,))
        sweep = run_sweep(spec)
        task = sweep.tasks[0]
        store.put_failure(task, self._failure(task_hash(task)))
        store.put(task, sweep.results[0], sweep.task_durations[0])
        assert store.get_failure(task) is None


class TestVerify:
    def _filled_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_sweep(tiny_spec(strategies=("selfish",)), store=store)
        return store

    def test_clean_store_verifies_ok(self, tmp_path):
        store = self._filled_store(tmp_path)
        verification = store.verify()
        assert verification.ok
        assert verification.checked == 2
        assert verification.corrupt == [] and verification.purged == 0

    def test_unreadable_json_is_reported_and_purged(self, tmp_path):
        store = self._filled_store(tmp_path)
        digest = next(iter(store.task_hashes()))
        path = store.task_path(digest)
        path.write_text("{ truncated", encoding="utf-8")

        events = []
        hooks = EventHooks()
        hooks.on_store_corrupt(lambda event: events.append(event))
        verification = store.verify(hooks=hooks)
        assert not verification.ok
        assert len(verification.corrupt) == 1
        assert verification.purged == 0
        (event,) = events
        assert event.task_hash == digest
        assert "JSON" in event.reason
        assert path.exists()

        purged = store.verify(purge=True)
        assert purged.purged == 1
        assert not path.exists()
        assert store.verify().ok

    def test_hash_mismatch_is_corrupt(self, tmp_path):
        store = self._filled_store(tmp_path)
        hashes = sorted(store.task_hashes())
        source = store.task_path(hashes[0])
        impostor = store.task_path("f" * 64)
        impostor.parent.mkdir(parents=True, exist_ok=True)
        impostor.write_bytes(source.read_bytes())
        verification = store.verify()
        assert len(verification.corrupt) == 1
        assert any("hash" in reason for _path, reason in verification.corrupt)

    def test_unrebuildable_result_is_corrupt(self, tmp_path):
        store = self._filled_store(tmp_path)
        digest = next(iter(store.task_hashes()))
        path = store.task_path(digest)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["result"] = {"nonsense": True}
        path.write_text(json.dumps(record), encoding="utf-8")
        verification = store.verify()
        assert len(verification.corrupt) == 1

    def test_resume_after_purge_reexecutes_exactly_the_purged_task(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec()
        first = run_sweep(spec, store=store)
        victim = first.tasks[1]
        store.task_path(task_hash(victim)).write_text("garbage", encoding="utf-8")
        store.verify(purge=True)
        second = run_sweep(spec, store=store)
        assert second.executed == 1 and second.loaded == len(second) - 1
        assert [r.to_dict() for r in second.results] == [
            r.to_dict() for r in first.results
        ]


class TestPrune:
    def test_prune_on_an_empty_store_is_a_no_op(self, tmp_path):
        report = ResultStore(tmp_path / "store").prune()
        assert report.removed == 0

    def test_results_and_quarantine_are_never_touched(self, tmp_path):
        store_path = str(tmp_path / "store")
        run_sweep(tiny_spec(seeds=(7,)), store=store_path)
        store = ResultStore(store_path)
        stored_before = sorted(store.task_hashes())
        store.prune(stale_after=0.0, now=time.time() + 10_000)
        assert sorted(store.task_hashes()) == stored_before

    def test_a_pool_sweep_leaves_nothing_to_prune(self, tmp_path):
        # Results and quarantine records are all a pool sweep writes.
        store = ResultStore(tmp_path / "store")
        plan = {"rules": [{"fault": "task-exception", "index": 0, "attempts": []}]}
        run_sweep(
            tiny_spec(),
            executor=ProcessPoolSweepExecutor(max_workers=2),
            store=store,
            faults=plan,
        )
        files_before = sorted(path for path in store.root.rglob("*") if path.is_file())
        report = store.prune(stale_after=0.0, now=time.time() + 10_000)
        assert report.removed == 0
        assert sorted(path for path in store.root.rglob("*") if path.is_file()) == files_before

    def test_superseded_pending_entries_are_removed(self, tmp_path):
        from repro.sweep.queue import QueueEntry, TaskQueue

        store_path = str(tmp_path / "store")
        result = run_sweep(tiny_spec(seeds=(7,)), store=store_path)
        store = ResultStore(store_path)
        queue = TaskQueue(store.root)
        task = result.tasks[0]
        queue.enqueue(
            QueueEntry(task=task.to_dict(), task_hash=task_hash(task), index=task.index)
        )
        report = store.prune()
        assert report.queue_files_removed == 1
        assert queue.pending_names() == []

    def test_unresolved_pending_entries_survive(self, tmp_path):
        from repro.sweep.queue import QueueEntry, TaskQueue

        store = ResultStore(tmp_path / "store")
        queue = TaskQueue(store.root)
        queue.enqueue(QueueEntry(task={}, task_hash="f" * 64, index=0))
        report = store.prune()
        assert report.queue_files_removed == 0
        assert len(queue.pending_names()) == 1

    def test_stale_leases_and_workers_and_temps_are_removed(self, tmp_path):
        from repro.sweep.queue import QueueEntry, TaskQueue

        store = ResultStore(tmp_path / "store")
        queue = TaskQueue(store.root)
        queue.enqueue(QueueEntry(task={}, task_hash="f" * 64, index=0))
        queue.claim("dead")
        queue.register_worker("dead")
        temp = store.root / "tasks" / "ab" / ".junk.json.tmp123"
        temp.parent.mkdir(parents=True, exist_ok=True)
        temp.write_bytes(b"half-written")
        fresh = store.prune(stale_after=3600.0)
        assert fresh.removed == 0  # everything is younger than the threshold
        aged = store.prune(stale_after=3600.0, now=time.time() + 7200.0)
        assert aged.queue_files_removed == 1  # the lease
        assert aged.worker_files_removed == 1
        assert aged.temp_files_removed == 1
        assert queue.lease_names() == []

    def test_prune_after_a_distributed_run_leaves_a_resumable_store(self, tmp_path):
        spec = tiny_spec(seeds=(7,))
        store_path = str(tmp_path / "store")
        run_sweep(
            spec,
            executor={"name": "distributed", "options": {"workers": 1, "poll_interval": 0.02}},
            store=store_path,
        )
        store = ResultStore(store_path)
        store.prune(stale_after=0.0, now=time.time() + 10_000)
        again = run_sweep(spec, store=store_path)
        assert again.executed == 0
        assert again.loaded == len(again.tasks)
