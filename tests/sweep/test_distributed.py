"""Tests for the distributed sweep backend: coordinator/worker parity with
serial runs, lease expiry and reclaim, retry and quarantine through the
queue, fatal propagation, and the executor event ordering contract."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.events import EventHooks
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.distributed import (
    MAX_DEFAULT_SPAWN,
    DistributedSweepExecutor,
    run_worker,
)
from repro.sweep.executors import ExecutorContext
from repro.sweep.faults import KIND_CRASH, FaultPlan, FaultRule, RetryPolicy
from repro.sweep.queue import TaskQueue
from repro.sweep.store import ResultStore

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


def payload(sweep_result):
    return [result.to_dict() for result in sweep_result.results]


def recording_hooks():
    """An EventHooks plus the ``(event, index, attempt)`` stream it records."""
    events = []
    hooks = EventHooks()
    for name in (
        "task_started",
        "task_finished",
        "task_failed",
        "task_retried",
        "task_quarantined",
        "lease_reclaimed",
    ):
        hooks.subscribe(
            name,
            (lambda n: lambda e: events.append((n, e.index, getattr(e, "attempt", None))))(
                name
            ),
        )
    return hooks, events


def run_with_thread_workers(spec, store_path, *, count=1, lease_timeout=None, **kwargs):
    """Drive a ``workers=0`` coordinator with in-thread external workers.

    The worker threads poll the store's queue exactly like external
    ``repro sweep-worker`` daemons would (they exit on the coordinator's
    STOP marker); running them on threads keeps these tests free of
    interpreter spawn cost.  Worker-kill faults degrade to ordinary
    injected exceptions in-thread (the process is not marked as a worker),
    so real-kill coverage lives in the spawned-daemon tests.
    """
    threads = [
        threading.Thread(
            target=run_worker,
            args=(store_path,),
            kwargs={"worker_id": f"thread-{index}", "poll_interval": 0.02},
            daemon=True,
        )
        for index in range(count)
    ]
    options = {"workers": 0, "poll_interval": 0.02}
    if lease_timeout is not None:
        options["lease_timeout"] = lease_timeout
    for thread in threads:
        thread.start()
    try:
        return run_sweep(
            spec,
            executor={"name": "distributed", "options": options},
            store=store_path,
            **kwargs,
        )
    finally:
        TaskQueue(store_path).request_stop()
        for thread in threads:
            thread.join(timeout=30.0)


class TestExecutorConstruction:
    def test_registered_under_its_names(self):
        from repro.registry import executor_registry

        assert "distributed" in executor_registry.names()
        assert executor_registry.get("queue") is executor_registry.get("distributed")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DistributedSweepExecutor(workers=-1)
        with pytest.raises(ConfigurationError):
            DistributedSweepExecutor(lease_timeout=0)
        with pytest.raises(ConfigurationError):
            DistributedSweepExecutor(heartbeat_interval=0)
        with pytest.raises(ConfigurationError):
            DistributedSweepExecutor(poll_interval=0)

    def test_default_spawn_is_capped(self):
        executor = DistributedSweepExecutor()
        assert 1 <= executor.workers <= MAX_DEFAULT_SPAWN

    def test_spawn_count_never_exceeds_tasks(self):
        executor = DistributedSweepExecutor(workers=8)
        assert executor.spawn_count(3) == 3
        assert executor.spawn_count(20) == 8
        assert DistributedSweepExecutor(workers=0).spawn_count(20) == 0

    def test_describe(self):
        assert DistributedSweepExecutor(workers=3).describe() == "distributed(3)"
        assert DistributedSweepExecutor(workers=0).describe() == "distributed(external)"

    def test_worker_config_publishes_the_policy(self):
        executor = DistributedSweepExecutor(workers=0, lease_timeout=8.0)
        context = ExecutorContext(
            retry_policy=RetryPolicy(max_attempts=3),
            task_timeout=12.0,
            faults=FaultPlan(rules=(FaultRule(fault="task-exception", index=0),)),
        )
        config = executor.worker_config(context)
        assert config["retry_policy"]["max_attempts"] == 3
        assert config["task_timeout"] == 12.0
        assert config["lease_timeout"] == 8.0
        assert config["heartbeat_interval"] == 2.0
        assert config["faults"]["rules"][0]["fault"] == "task-exception"


class TestThreadWorkerParity:
    def test_external_workers_match_serial_byte_for_byte(self, tmp_path):
        spec = tiny_spec()
        reference = run_sweep(spec)
        distributed = run_with_thread_workers(spec, str(tmp_path / "store"), count=2)
        assert payload(distributed) == payload(reference)
        assert distributed.executor == "distributed(external)"

    def test_retry_through_the_queue_matches_serial(self, tmp_path):
        spec = tiny_spec()
        reference = run_sweep(spec)
        hooks, events = recording_hooks()
        plan = FaultPlan(rules=(FaultRule(fault="task-exception", index=1, attempts=(1,)),))
        distributed = run_with_thread_workers(
            spec, str(tmp_path / "store"), retries=1, faults=plan, hooks=hooks
        )
        assert payload(distributed) == payload(reference)
        assert not distributed.failures
        assert ("task_failed", 1, 1) in events
        assert ("task_retried", 1, 2) in events
        # Contract rule 2: the failure precedes the retry's start.
        assert events.index(("task_failed", 1, 1)) < events.index(("task_started", 1, 2))

    def test_exhausted_budget_quarantines_through_the_store(self, tmp_path):
        spec = tiny_spec(seeds=(7,))
        plan = FaultPlan(
            rules=(FaultRule(fault="task-exception", index=0, attempts=()),)
        )  # empty attempts = fail every attempt
        hooks, events = recording_hooks()
        store_path = str(tmp_path / "store")
        distributed = run_with_thread_workers(
            spec, store_path, retries=1, faults=plan, hooks=hooks
        )
        assert [failure.index for failure in distributed.failures] == [0]
        assert len(distributed.results) == len(distributed.tasks) - 1
        assert ("task_quarantined", 0, None) in events
        assert ResultStore(store_path).get_failure(distributed.failures[0].task_hash)

    def test_first_attempt_starts_arrive_in_index_order(self, tmp_path):
        hooks, events = recording_hooks()
        run_with_thread_workers(tiny_spec(), str(tmp_path / "store"), hooks=hooks, count=2)
        first_starts = [
            index for name, index, attempt in events if name == "task_started" and attempt == 1
        ]
        assert first_starts == sorted(first_starts)

    def test_fatal_misconfiguration_aborts_the_sweep(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise ConfigurationError("deterministically broken")

        monkeypatch.setattr("repro.sweep.distributed.execute_task", explode)
        with pytest.raises(ConfigurationError, match="deterministically broken"):
            run_with_thread_workers(tiny_spec(seeds=(7,)), str(tmp_path / "store"))

    def test_resume_skips_everything_stored(self, tmp_path):
        spec = tiny_spec()
        store_path = str(tmp_path / "store")
        run_with_thread_workers(spec, store_path)
        again = run_with_thread_workers(spec, store_path)
        assert again.executed == 0
        assert again.loaded == len(again.tasks)


class TestRunWorker:
    def test_drain_exits_on_empty_queue(self, tmp_path):
        assert run_worker(str(tmp_path), drain=True) == 0

    def test_should_stop_exits_the_loop(self, tmp_path):
        stop = threading.Event()
        stop.set()
        assert run_worker(str(tmp_path), should_stop=stop.is_set) == 0

    def test_stop_marker_exits_the_loop(self, tmp_path):
        queue = TaskQueue(tmp_path)
        queue.request_stop()
        assert run_worker(str(tmp_path)) == 0

    def test_worker_deregisters_on_exit(self, tmp_path):
        run_worker(str(tmp_path), worker_id="w1", drain=True)
        assert list(TaskQueue(tmp_path).worker_statuses()) == []


class TestSpawnedWorkers:
    """End-to-end runs with real ``repro sweep-worker`` daemon processes."""

    def test_spawned_workers_match_serial_byte_for_byte(self, tmp_path):
        spec = tiny_spec()
        reference = run_sweep(spec)
        distributed = run_sweep(
            spec,
            executor={
                "name": "distributed",
                "options": {"workers": 2, "lease_timeout": 20, "poll_interval": 0.02},
            },
            store=str(tmp_path / "store"),
        )
        assert payload(distributed) == payload(reference)
        assert distributed.executor == "distributed(2)"

    def test_runs_without_a_store_through_a_temporary_one(self):
        spec = tiny_spec(seeds=(7,))
        reference = run_sweep(spec)
        distributed = run_sweep(
            spec,
            executor={
                "name": "distributed",
                "options": {"workers": 1, "lease_timeout": 20, "poll_interval": 0.02},
            },
        )
        assert payload(distributed) == payload(reference)

    def test_killed_worker_loses_its_lease_and_the_task_is_requeued_once(self, tmp_path):
        """The satellite contract: a worker killed mid-task loses its lease,
        the task is requeued exactly once, and the final results are
        byte-identical to serial with nothing re-executed on resume."""
        spec = tiny_spec()
        reference = run_sweep(spec)
        hooks, events = recording_hooks()
        plan = FaultPlan(rules=(FaultRule(fault="worker-kill", index=1, attempts=(1,)),))
        store_path = str(tmp_path / "store")
        distributed = run_sweep(
            spec,
            executor={
                "name": "distributed",
                "options": {"workers": 2, "lease_timeout": 3, "poll_interval": 0.02},
            },
            store=store_path,
            retries=1,
            faults=plan,
            hooks=hooks,
        )
        assert payload(distributed) == payload(reference)
        assert not distributed.failures
        reclaims = [event for event in events if event[0] == "lease_reclaimed"]
        assert reclaims == [("lease_reclaimed", 1, 1)]
        crash_failures = [event for event in events if event[0] == "task_failed"]
        assert crash_failures == [("task_failed", 1, 1)]
        assert events.count(("task_retried", 1, 2)) == 1
        assert events.count(("task_started", 1, 2)) == 1
        # The crash-failure/retry pair precedes the second attempt's start.
        assert events.index(("task_failed", 1, 1)) < events.index(("task_started", 1, 2))
        # Resume re-executes nothing.
        again = run_sweep(spec, executor="distributed", store=store_path)
        assert again.executed == 0
        assert again.loaded == len(again.tasks)
        assert payload(again) == payload(reference)


class TestLeaseReclaimWithoutWorkers:
    def test_coordinator_reclaims_an_abandoned_lease(self, tmp_path):
        """A lease whose worker never heartbeats expires and is requeued on
        the crash budget — exercised coordinator-side with no real worker
        death by pre-claiming one entry from a worker that will never renew."""
        spec = tiny_spec(seeds=(7,))
        store_path = str(tmp_path / "store")
        store = ResultStore(store_path)
        tasks = spec.validate()
        queue = TaskQueue(store.root, lease_timeout=1.0)
        from repro.sweep.queue import QueueEntry
        from repro.sweep.store import task_hash

        victim = tasks[0]
        queue.enqueue(
            QueueEntry(task=victim.to_dict(), task_hash=task_hash(victim), index=victim.index)
        )
        queue.claim("dead-worker")  # fresh heartbeat, but never renewed

        hooks, events = recording_hooks()
        result = run_with_thread_workers(
            spec,
            store_path,
            lease_timeout=1.0,
            retries={"crash_requeues": 1},
            hooks=hooks,
        )
        # The fresh lease was adopted at startup, expired one lease timeout
        # later, and the task still completed through the requeue.
        assert len(result.results) == len(tasks)
        assert ("lease_reclaimed", 0, 1) in events
        crash = next(event for event in events if event[0] == "task_failed")
        assert crash == ("task_failed", 0, 1)

    def test_a_reclaim_past_the_crash_budget_quarantines_as_a_crash(self, tmp_path):
        spec = tiny_spec(seeds=(7,))
        store_path = str(tmp_path / "store")
        tasks = spec.validate()
        queue = TaskQueue(store_path, lease_timeout=1.0)
        from repro.sweep.queue import QueueEntry
        from repro.sweep.store import task_hash

        victim = tasks[0]
        queue.enqueue(
            QueueEntry(task=victim.to_dict(), task_hash=task_hash(victim), index=victim.index)
        )
        queue.claim("dead-worker")  # fresh heartbeat, but never renewed

        hooks, events = recording_hooks()
        result = run_with_thread_workers(
            spec,
            store_path,
            lease_timeout=1.0,
            retries={"crash_requeues": 0},
            hooks=hooks,
        )
        (failure,) = result.failures
        assert (failure.index, failure.attempts, failure.kind) == (0, 1, KIND_CRASH)
        assert failure.error_type == "WorkerLostError"
        assert "'dead-worker' stopped heartbeating" in failure.message
        assert len(result.results) == len(tasks) - 1
        assert ("lease_reclaimed", 0, 1) in events
        assert ("task_quarantined", 0, None) in events
        assert not [event for event in events if event[0] == "task_retried"]
        assert ResultStore(store_path).get_failure(failure.task_hash) == failure
        assert TaskQueue(store_path).empty()

    def test_an_entry_that_vanishes_is_charged_one_crash_and_requeued(self, tmp_path):
        """An entry that leaves the queue with no result and no quarantine
        record (here a thread claims it and drops the lease without running
        it) is charged one crash after a lease timeout and runs as attempt 2."""
        spec = tiny_spec(strategies=("selfish",), seeds=(7,))
        store_path = str(tmp_path / "store")
        reference = run_sweep(spec)

        def drop_one_claim_then_work():
            queue = TaskQueue(store_path, lease_timeout=1.0)
            deadline = time.monotonic() + 30.0
            lease = None
            while lease is None and time.monotonic() < deadline:
                lease = queue.claim("claim-dropper")
                time.sleep(0.01)
            if lease is not None:
                lease.release()
            run_worker(store_path, worker_id="after-drop", poll_interval=0.02)

        worker = threading.Thread(target=drop_one_claim_then_work, daemon=True)
        worker.start()
        hooks, events = recording_hooks()
        failed = []
        hooks.on_task_failed(lambda event: failed.append(dict(event.error)))
        try:
            result = run_sweep(
                spec,
                executor={
                    "name": "distributed",
                    "options": {"workers": 0, "lease_timeout": 1.0, "poll_interval": 0.02},
                },
                store=store_path,
                hooks=hooks,
            )
        finally:
            TaskQueue(store_path).request_stop()
            worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert payload(result) == payload(reference)
        assert not result.failures
        (error,) = failed
        assert (error["type"], error["kind"], error["attempt"]) == ("WorkerLostError", "crash", 1)
        assert "vanished" in error["message"]
        assert ("lease_reclaimed", 0, 1) in events
        assert ("task_retried", 0, 2) in events
        assert events.index(("task_failed", 0, 1)) < events.index(("task_started", 0, 2))
        assert ("task_finished", 0, 2) in events

