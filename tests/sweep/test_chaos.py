"""Chaos suite: deterministic fault injection across every executor.

The contract under test is the package's design center extended to faults —
whatever chaos a :class:`FaultPlan` injects (exceptions, hangs, worker
kills), a sweep that survives it produces a ``SweepResult``
byte-identical to a fault-free serial run, and a killed sweep resumes
through the store without re-executing completed tasks.
"""

from __future__ import annotations

import json

import pytest

from repro.events import EventHooks
from repro.sweep import (
    FaultPlan,
    FaultRule,
    ResultStore,
    SweepSpec,
    run_sweep,
    task_hash,
)
from repro.sweep.executors import ProcessPoolSweepExecutor, SerialExecutor

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


ALL_EXECUTORS = (
    SerialExecutor(),
    ProcessPoolSweepExecutor(max_workers=2),
)

#: Each executor with the seeds of its grid (two tasks per seed).  The
#: 2-worker pool also runs a 6-task grid, wider than its 4-attempt window,
#: so retries and crash requeues compete with fresh tasks for free slots.
EXECUTOR_CASES = (
    pytest.param(ALL_EXECUTORS[0], (7, 11), id="serial"),
    pytest.param(ALL_EXECUTORS[1], (7, 11), id="process-pool"),
    pytest.param(ALL_EXECUTORS[1], (7, 11, 13), id="process-pool-refill"),
)
POOL_CASES = EXECUTOR_CASES[1:]
#: Two spawned worker daemons: the killed one's lease is reclaimed after 3 s.
DISTRIBUTED_CASE = pytest.param(
    {"name": "distributed", "options": {"workers": 2, "lease_timeout": 3, "poll_interval": 0.05}},
    (7, 11),
    id="distributed",
)

#: One rule per fault model that a retry can absorb: a first-attempt
#: exception, a first-attempt worker kill and a first-attempt hang cut
#: short by the task timeout.
COMBINED_PLAN = FaultPlan(
    rules=(
        FaultRule(fault="task-exception", index=0, attempts=(1,)),
        FaultRule(fault="worker-kill", index=1, attempts=(1,)),
        FaultRule(fault="task-hang", index=3, attempts=(1,), options={"seconds": 60.0}),
    )
)


#: :data:`COMBINED_PLAN` without its worker kill.  On a pool the kill breaks
#: every in-flight task's first attempt, so the exception and hang rules
#: never fire there; without it the pool must retry both.
RETRY_PLAN = FaultPlan(
    rules=tuple(rule for rule in COMBINED_PLAN.rules if rule.fault != "worker-kill")
)

#: Each chaos case with the plan it runs and the failure kinds it must record.
CHAOS_CASES = tuple(
    pytest.param(*case.values, COMBINED_PLAN, frozenset(), id=case.id)
    for case in EXECUTOR_CASES + (DISTRIBUTED_CASE,)
) + (
    pytest.param(
        ALL_EXECUTORS[1],
        (7, 11),
        RETRY_PLAN,
        frozenset({"exception", "timeout"}),
        id="process-pool-retries",
    ),
)


def payload(sweep_result):
    return [result.to_dict() for result in sweep_result.results]


class TestChaosParity:
    @pytest.mark.parametrize("executor, seeds, plan, kinds", CHAOS_CASES)
    def test_every_executor_is_byte_identical_under_the_combined_plan(
        self, executor, seeds, plan, kinds
    ):
        from repro.sweep.faults import timeout_enforcement_available

        if "timeout" in kinds and not timeout_enforcement_available():
            pytest.skip("needs SIGALRM on the main thread")
        spec = tiny_spec(seeds=seeds)
        reference = run_sweep(spec)  # fault-free serial
        recorded = set()
        hooks = EventHooks()
        hooks.on_task_failed(lambda event: recorded.add(event.error["kind"]))
        chaotic = run_sweep(
            spec, executor=executor, retries=2, task_timeout=3.0, faults=plan, hooks=hooks
        )
        assert not chaotic.failures
        assert payload(chaotic) == payload(reference)
        assert kinds <= recorded

    def test_env_variable_injects_the_plan(self, monkeypatch):
        from repro.sweep.faults import ENV_FAULTS

        spec = tiny_spec(strategies=("selfish",), seeds=(7,))
        reference = run_sweep(spec)
        monkeypatch.setenv(
            ENV_FAULTS,
            '{"rules": [{"fault": "task-exception", "index": 0, "attempts": [1]}]}',
        )
        failed = run_sweep(spec)  # no retries: the injected fault quarantines
        assert len(failed.failures) == 1
        recovered = run_sweep(spec, retries=1)
        assert not recovered.failures
        assert payload(recovered) == payload(reference)

    def test_explicit_faults_argument_overrides_the_env(self, monkeypatch):
        from repro.sweep.faults import ENV_FAULTS

        monkeypatch.setenv(ENV_FAULTS, '{"rules": [{"fault": "task-exception"}]}')
        spec = tiny_spec(strategies=("selfish",), seeds=(7,))
        clean = run_sweep(spec, faults=FaultPlan(rules=()))
        assert not clean.failures


class TestQuarantine:
    @pytest.mark.parametrize("executor, seeds", EXECUTOR_CASES)
    def test_a_persistent_failure_quarantines_without_aborting(self, executor, seeds):
        spec = tiny_spec(seeds=seeds)
        plan = FaultPlan(rules=(FaultRule(fault="task-exception", index=1, attempts=()),))
        result = run_sweep(spec, executor=executor, retries=1, faults=plan)
        assert len(result.results) == len(result.tasks) - 1
        (failure,) = result.failures
        assert failure.index == 1
        assert failure.attempts == 2
        assert failure.injected
        assert failure.error_type == "InjectedFaultError"
        # The surviving tasks still match the fault-free reference.
        reference = run_sweep(spec)
        expected = [
            result.to_dict()
            for task, result in zip(reference.tasks, reference.results)
            if task.index != 1
        ]
        assert payload(result) == expected

    def test_quarantine_is_recorded_in_the_store_and_cleared_on_success(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec(strategies=("selfish",))
        plan = FaultPlan(rules=(FaultRule(fault="task-exception", index=0, attempts=()),))
        failed = run_sweep(spec, store=store, faults=plan)
        (failure,) = failed.failures
        victim = failed.tasks[0]
        record = store.get_failure(victim)
        assert record is not None
        assert record.error_type == "InjectedFaultError"
        assert list(store.failure_hashes()) == [task_hash(victim)]

        # Resume without faults: only the quarantined task re-executes, and
        # success supersedes the quarantine record.
        resumed = run_sweep(spec, store=store)
        assert resumed.executed == 1 and resumed.loaded == 1
        assert not resumed.failures
        assert store.get_failure(victim) is None
        assert payload(resumed) == payload(run_sweep(spec))

    def test_timeout_exhaustion_quarantines_with_kind_timeout(self):
        from repro.sweep.faults import timeout_enforcement_available

        if not timeout_enforcement_available():
            pytest.skip("needs SIGALRM on the main thread")
        spec = tiny_spec(strategies=("selfish",), seeds=(7,))
        plan = FaultPlan(
            rules=(FaultRule(fault="task-hang", index=0, attempts=(), options={"seconds": 30.0}),)
        )
        result = run_sweep(spec, faults=plan, task_timeout=0.3)
        (failure,) = result.failures
        assert failure.kind == "timeout"


class TestCrashRecovery:
    @pytest.mark.parametrize("executor, seeds", POOL_CASES)
    def test_worker_kill_respawns_the_pool_and_finishes(self, executor, seeds):
        spec = tiny_spec(seeds=seeds)
        reference = run_sweep(spec)
        plan = FaultPlan(rules=(FaultRule(fault="worker-kill", index=2, attempts=(1,)),))
        crash_events = []
        hooks = EventHooks()
        hooks.on_task_failed(
            lambda event: crash_events.append((event.index, event.error["kind"]))
        )
        result = run_sweep(spec, executor=executor, faults=plan, hooks=hooks)
        assert not result.failures
        assert payload(result) == payload(reference)
        assert any(kind == "crash" for _index, kind in crash_events)

    def test_mid_sweep_kill_resumes_with_zero_reexecution(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec()
        reference = run_sweep(spec)

        # "Kill" the coordinator after two tasks persisted: a hook raises out
        # of run_sweep, exactly like an operator's SIGINT mid-sweep.
        class Killed(RuntimeError):
            pass

        hooks = EventHooks()

        def maybe_kill(event):
            if event.completed >= 2:
                raise Killed()

        hooks.on_task_finished(maybe_kill)
        with pytest.raises(Killed):
            run_sweep(spec, store=store, hooks=hooks)
        assert len(store) == 2

        loaded_indexes = []
        resume_hooks = EventHooks()
        resume_hooks.on_task_loaded(lambda event: loaded_indexes.append(event.index))
        resumed = run_sweep(spec, store=store, hooks=resume_hooks)
        assert resumed.loaded == 2 and resumed.executed == 2
        assert sorted(loaded_indexes) == [0, 1]
        assert payload(resumed) == payload(reference)

    def test_worker_kill_then_resume_through_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec()
        reference = run_sweep(spec)
        plan = FaultPlan(rules=(FaultRule(fault="worker-kill", index=1, attempts=(1,)),))
        first = run_sweep(
            spec,
            executor=ProcessPoolSweepExecutor(max_workers=2),
            store=store,
            faults=plan,
        )
        assert not first.failures
        resumed = run_sweep(spec, store=store)
        assert resumed.executed == 0 and resumed.loaded == len(resumed)
        assert payload(resumed) == payload(reference)

    def test_a_task_that_keeps_killing_its_worker_is_the_only_one_quarantined(self):
        # Every break fails all in-flight futures at once; the bystanders are
        # charged that one crash and then run alone, so only task 0 exhausts
        # the default three crash requeues.
        spec = SweepSpec(
            strategies=("selfish", "altruistic"),
            initials=("singletons", "random", "more", "category"),
            scale="quick",
            seeds=(7, 11),
        )
        reference = run_sweep(spec)
        plan = FaultPlan(
            rules=(FaultRule(fault="worker-kill", index=0, attempts=(1, 2, 3, 4)),)
        )
        crashes = []
        hooks = EventHooks()
        hooks.on_task_failed(lambda event: crashes.append(event.index))
        result = run_sweep(
            spec,
            executor=ProcessPoolSweepExecutor(max_workers=2),
            faults=plan,
            hooks=hooks,
        )
        assert len(result.tasks) == 16
        assert [failure.index for failure in result.failures] == [0]
        assert result.failures[0].kind == "crash"
        assert crashes.count(0) == 4
        assert all(crashes.count(index) <= 1 for index in range(1, 16))
        expected = [
            json.dumps(run.to_dict(), sort_keys=True)
            for task, run in zip(reference.tasks, reference.results)
            if task.index != 0
        ]
        assert [json.dumps(run.to_dict(), sort_keys=True) for run in result.results] == expected

    @pytest.mark.parametrize(
        "workers, index",
        ((2, 2), (2, 6), (3, 4)),
        ids=("2-workers-2", "2-workers-6", "3-workers-4"),
    )
    def test_only_the_killing_task_is_quarantined_wherever_it_sits(self, workers, index):
        # Index 6 is admitted by a window refill, not with the first window.
        spec = tiny_spec(seeds=(7, 11, 13, 17))
        reference = run_sweep(spec)
        plan = FaultPlan(
            rules=(FaultRule(fault="worker-kill", index=index, attempts=(1, 2, 3, 4)),)
        )
        crashes = []
        hooks = EventHooks()
        hooks.on_task_failed(lambda event: crashes.append(event.index))
        result = run_sweep(
            spec,
            executor=ProcessPoolSweepExecutor(max_workers=workers),
            faults=plan,
            hooks=hooks,
        )
        assert [failure.index for failure in result.failures] == [index]
        assert crashes.count(index) == 4
        assert all(crashes.count(other) <= 1 for other in range(8) if other != index)
        expected = [
            run.to_dict()
            for task, run in zip(reference.tasks, reference.results)
            if task.index != index
        ]
        assert payload(result) == expected

    @pytest.mark.parametrize("workers", (2, 3))
    def test_an_attempt_requeued_after_a_crash_runs_alone(self, workers):
        spec = tiny_spec(seeds=(7, 11, 13, 17))
        reference = run_sweep(spec)
        plan = FaultPlan(rules=(FaultRule(fault="worker-kill", index=1, attempts=(1, 2)),))
        events = []
        hooks = EventHooks()
        hooks.on_task_started(lambda event: events.append(("start", event.index, event.attempt)))
        hooks.on_task_finished(lambda event: events.append(("end", event.index, event.attempt)))
        hooks.on_task_failed(
            lambda event: events.append(("crash", event.index, event.attempt))
        )
        result = run_sweep(
            spec,
            executor=ProcessPoolSweepExecutor(max_workers=workers),
            faults=plan,
            hooks=hooks,
        )
        assert not result.failures
        assert payload(result) == payload(reference)

        in_flight, alone, charged, alone_runs = set(), None, set(), []
        for kind, index, attempt in events:
            if kind == "start":
                assert alone is None, f"{index} joined the lone attempt {alone}"
                if index in charged:
                    assert not in_flight, f"{index} was requeued beside {in_flight}"
                    alone = (index, attempt)
                    alone_runs.append(index)
                in_flight.add((index, attempt))
                continue
            in_flight.discard((index, attempt))
            if alone == (index, attempt):
                alone = None
            if kind == "crash":
                charged.add(index)
        # Task 1 ran alone twice (attempts 2 and 3), every bystander once.
        assert alone_runs.count(1) == 2
        assert sorted(set(alone_runs)) == sorted(charged)
