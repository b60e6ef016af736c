"""Tests for the pluggable sweep executors: resolution, registry, event
ordering contract, pool sizing, cross-executor parity and the removed
shims."""

from __future__ import annotations

import warnings

import pytest

import repro.sweep.executors as executors_module
from repro.errors import ConfigurationError, UnknownComponentError
from repro.events import EventHooks
from repro.registry import executor_registry, register_executor
from repro.sweep import ResultStore, SweepSpec, run_sweep
from repro.sweep.executors import (
    ExecutorContext,
    ProcessPoolSweepExecutor,
    SerialExecutor,
    SweepExecutor,
    TaskOutcome,
    execute_task,
    executor_from_any,
    resolve_executor,
)

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

#: The executors of the contract tests, each with the seeds of its grid (two
#: tasks per seed).  The 2-worker pool runs twice: on the 4-task grid, which
#: fits its 4-attempt window, and on a 6-task grid, which does not, so
#: admission waits for free slots and retries compete with fresh tasks.
CONTRACT_CASES = (
    pytest.param(ALL_EXECUTORS[0], (7, 11), id="serial"),
    pytest.param(ALL_EXECUTORS[1], (7, 11), id="process-pool"),
    pytest.param(ALL_EXECUTORS[1], (7, 11, 13), id="process-pool-refill"),
)
POOL_CASES = CONTRACT_CASES[1:]


class TestRegistry:
    def test_builtin_executors_are_registered(self):
        names = executor_registry.names()
        for name in ("serial", "process-pool", "distributed"):
            assert name in names

    def test_aliases_resolve_to_the_same_component(self):
        assert executor_registry.canonical_name("inline") == "serial"
        assert executor_registry.canonical_name("pool") == "process-pool"

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownComponentError):
            executor_registry.get("quantum")

    def test_custom_executor_is_selectable_by_name(self):
        @register_executor("test-noop-executor", replace=True)
        class NoopExecutor(SerialExecutor):
            name = "test-noop-executor"

        try:
            resolved = resolve_executor("test-noop-executor")
            assert isinstance(resolved, NoopExecutor)
            result = run_sweep(tiny_spec(seeds=(7,)), executor="test-noop-executor")
            assert len(result) == 2
        finally:
            executor_registry.unregister("test-noop-executor")


class TestResolution:
    def test_default_is_serial(self):
        assert isinstance(resolve_executor(), SerialExecutor)
        assert isinstance(executor_from_any(None, 1), SerialExecutor)

    def test_workers_map_to_a_process_pool(self):
        executor = executor_from_any(None, 3)
        assert isinstance(executor, ProcessPoolSweepExecutor)
        assert executor.workers == 3

    def test_name_and_spec_forms(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        executor = resolve_executor({"name": "process-pool", "options": {"max_workers": 2}})
        assert isinstance(executor, ProcessPoolSweepExecutor)
        assert executor.workers == 2

    def test_instance_passes_through(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor

    def test_resolve_executor_has_no_workers_keyword(self):
        with pytest.raises(TypeError, match="workers"):
            resolve_executor("serial", workers=2)

    def test_bad_spec_keys_raise(self):
        with pytest.raises(ConfigurationError, match="unknown executor spec keys"):
            resolve_executor({"name": "serial", "max_workers": 2})
        with pytest.raises(ConfigurationError, match="'name'"):
            resolve_executor({"options": {}})

    def test_bad_worker_counts_raise(self):
        with pytest.raises(ConfigurationError, match="workers"):
            executor_from_any(None, 0)
        with pytest.raises(ConfigurationError, match="max_workers"):
            ProcessPoolSweepExecutor(max_workers=0)

    def test_executor_from_any_gives_executor_precedence(self):
        executor = executor_from_any("serial", 8)
        assert isinstance(executor, SerialExecutor)
        pool = executor_from_any(None, 4)
        assert isinstance(pool, ProcessPoolSweepExecutor)
        assert pool.workers == 4

    def test_describe_strings(self):
        assert SerialExecutor().describe() == "serial"
        assert ProcessPoolSweepExecutor(max_workers=3).describe() == "process-pool(3)"


class TestPoolSizing:
    @staticmethod
    def _record_pool_sizes(monkeypatch) -> list:
        """The ``max_workers`` of every process pool opened from now on."""
        sizes = []
        real_pool = executors_module.ProcessPoolExecutor

        class RecordingPool(real_pool):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(executors_module, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_for_a_two_task_grid_has_at_most_two_processes(self, monkeypatch):
        sizes = self._record_pool_sizes(monkeypatch)
        result = run_sweep(
            tiny_spec(seeds=(7,)), executor=ProcessPoolSweepExecutor(max_workers=8)
        )
        assert len(result) == 2
        assert sizes and max(sizes) <= 2

    @pytest.mark.parametrize(
        "max_workers, cpus, seeds, expected",
        (
            (3, 8, (7, 11), 3),
            (None, 3, (7, 11), 3),
            (None, 8, (7,), 2),
        ),
        ids=("max-workers", "cpu-count", "task-count"),
    )
    def test_pool_size_is_the_least_of_the_limit_and_the_task_count(
        self, monkeypatch, max_workers, cpus, seeds, expected
    ):
        # The limit is max_workers, or the CPU count when it is None.
        sizes = self._record_pool_sizes(monkeypatch)
        monkeypatch.setattr(executors_module.os, "cpu_count", lambda: cpus)
        result = run_sweep(
            tiny_spec(seeds=seeds), executor=ProcessPoolSweepExecutor(max_workers=max_workers)
        )
        assert len(result) == 2 * len(seeds)
        assert sizes == [expected]

    def test_a_resumed_sweep_sizes_the_pool_from_the_pending_tasks(
        self, monkeypatch, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        run_sweep(tiny_spec(seeds=(7,)), store=store)
        sizes = self._record_pool_sizes(monkeypatch)
        resumed = run_sweep(
            tiny_spec(seeds=(7, 11, 13)),
            executor=ProcessPoolSweepExecutor(max_workers=8),
            store=store,
        )
        assert resumed.loaded == 2 and resumed.executed == 4
        assert sizes == [4]

    def test_a_single_pending_task_runs_without_a_pool(self, monkeypatch, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_sweep(tiny_spec(strategies=("selfish",), seeds=(7,)), store=store)
        sizes = self._record_pool_sizes(monkeypatch)
        resumed = run_sweep(
            tiny_spec(seeds=(7,)),
            executor=ProcessPoolSweepExecutor(max_workers=8),
            store=store,
        )
        assert resumed.loaded == 1 and resumed.executed == 1
        assert sizes == []

    def test_the_window_is_not_an_option(self):
        # The in-flight window is always twice the pool size.
        with pytest.raises(TypeError, match="window"):
            resolve_executor(
                {"name": "process-pool", "options": {"max_workers": 2, "window": 4}}
            )


class TestEventOrderingContract:
    """The five rules documented in repro.sweep.executors."""

    @staticmethod
    def _record(executor: SweepExecutor, seeds=(7, 11)):
        spec = tiny_spec(seeds=seeds)
        events = []
        hooks = EventHooks()
        hooks.on_task_started(lambda event: events.append(("start", event.index)))
        hooks.on_task_finished(lambda event: events.append(("finish", event.index)))
        result = run_sweep(spec, executor=executor, hooks=hooks)
        return events, len(result)

    @pytest.mark.parametrize("executor, seeds", CONTRACT_CASES)
    def test_exactly_one_start_and_finish_per_task_and_start_precedes_finish(
        self, executor, seeds
    ):
        events, total = self._record(executor, seeds)
        starts = [index for kind, index in events if kind == "start"]
        finishes = [index for kind, index in events if kind == "finish"]
        assert sorted(starts) == list(range(total))
        assert sorted(finishes) == list(range(total))
        for index in range(total):
            assert events.index(("start", index)) < events.index(("finish", index))

    @pytest.mark.parametrize("executor, seeds", CONTRACT_CASES)
    def test_starts_are_in_task_index_order(self, executor, seeds):
        events, total = self._record(executor, seeds)
        starts = [index for kind, index in events if kind == "start"]
        assert starts == list(range(total))

    def test_serial_window_is_one(self):
        events, total = self._record(SerialExecutor())
        expected = []
        for index in range(total):
            expected.extend([("start", index), ("finish", index)])
        assert events == expected

    @pytest.mark.parametrize("workers", (2, 3))
    def test_pool_in_flight_never_exceeds_twice_the_workers(self, workers):
        # 16 tasks: more than the window, so the bound is actually reached.
        spec = tiny_spec(seeds=(7, 11, 13, 17, 19, 23, 29, 31))
        events = []
        hooks = EventHooks()
        hooks.on_task_started(lambda event: events.append("start"))
        hooks.on_task_finished(lambda event: events.append("finish"))
        run_sweep(spec, executor=ProcessPoolSweepExecutor(max_workers=workers), hooks=hooks)
        in_flight, peak = 0, 0
        for kind in events:
            in_flight += 1 if kind == "start" else -1
            peak = max(peak, in_flight)
            assert 0 <= in_flight <= 2 * workers
        assert peak == 2 * workers

    def test_durations_are_worker_side_for_every_executor(self):
        for executor in ALL_EXECUTORS:
            result = run_sweep(tiny_spec(seeds=(7,)), executor=executor)
            assert len(result.task_durations) == len(result)
            assert all(duration > 0 for duration in result.task_durations)


class TestEventOrderingUnderFaults:
    """The amended contract: one start per *attempt*, exactly one terminal
    finish-or-quarantine per task, first-attempt starts in index order."""

    @staticmethod
    def _record(executor: SweepExecutor, seeds, *, retries: int, faults) -> dict:
        events = []
        hooks = EventHooks()
        hooks.on_task_started(
            lambda event: events.append(("start", event.index, event.attempt))
        )
        hooks.on_task_finished(
            lambda event: events.append(("finish", event.index, event.attempt))
        )
        hooks.on_task_failed(
            lambda event: events.append(("failed", event.index, event.attempt))
        )
        hooks.on_task_retried(
            lambda event: events.append(("retried", event.index, event.attempt))
        )
        hooks.on_task_quarantined(
            lambda event: events.append(("quarantined", event.index, None))
        )
        result = run_sweep(
            tiny_spec(seeds=seeds),
            executor=executor,
            hooks=hooks,
            retries=retries,
            faults=faults,
        )
        return {"events": events, "total": len(result.tasks)}

    @staticmethod
    def _assert_contract(recorded: dict) -> None:
        events, total = recorded["events"], recorded["total"]
        for index in range(total):
            starts = [e for e in events if e[0] == "start" and e[1] == index]
            retried = [e for e in events if e[0] == "retried" and e[1] == index]
            terminals = [
                e for e in events if e[0] in ("finish", "quarantined") and e[1] == index
            ]
            # One start per attempt: the first attempt plus one per re-enqueue.
            assert len(starts) == 1 + len(retried)
            assert [attempt for _kind, _index, attempt in starts] == list(
                range(1, len(starts) + 1)
            )
            # Exactly one terminal event, after the first start.
            assert len(terminals) == 1
            assert events.index(starts[0]) < events.index(terminals[0])
        first_starts = [e[1] for e in events if e[0] == "start" and e[2] == 1]
        assert first_starts == list(range(total))

    @pytest.mark.parametrize("executor, seeds", CONTRACT_CASES)
    def test_contract_holds_with_a_retried_task(self, executor, seeds):
        from repro.sweep import FaultPlan, FaultRule

        plan = FaultPlan(rules=(FaultRule(fault="task-exception", index=0, attempts=(1,)),))
        recorded = self._record(executor, seeds, retries=1, faults=plan)
        self._assert_contract(recorded)
        events = recorded["events"]
        assert ("retried", 0, 2) in events
        assert ("finish", 0, 2) in events

    @pytest.mark.parametrize("executor, seeds", CONTRACT_CASES)
    def test_contract_holds_with_a_quarantined_task(self, executor, seeds):
        from repro.sweep import FaultPlan, FaultRule

        plan = FaultPlan(rules=(FaultRule(fault="task-exception", index=2, attempts=()),))
        recorded = self._record(executor, seeds, retries=1, faults=plan)
        self._assert_contract(recorded)
        events = recorded["events"]
        assert ("quarantined", 2, None) in events
        assert ("finish", 2, 1) not in events
        assert len([e for e in events if e[0] == "failed" and e[1] == 2]) == 2

    @pytest.mark.parametrize("executor, seeds", CONTRACT_CASES)
    def test_fatal_misconfiguration_aborts_instead_of_quarantining(self, executor, seeds):
        # A ConfigurationError is a deterministic user error, not a task
        # fault: no retry budget is spent and the sweep raises.
        spec = tiny_spec(
            seeds=seeds,
            workloads=("uniform",),
            runner="traffic",
            runner_options={"after": "tea-break", "num_events": 50},
        )
        with pytest.raises(ConfigurationError, match="phase"):
            run_sweep(spec, executor=executor, retries=3)

    @pytest.mark.parametrize("executor, seeds", CONTRACT_CASES[:2])
    def test_bad_theta_option_aborts_instead_of_quarantining(self, executor, seeds):
        spec = tiny_spec(
            seeds=seeds,
            strategies=("selfish",),
            overrides={
                "scenario_overrides": dict(TINY_SCENARIO),
                "theta": "polynomial",
                "theta_options": {"exponent": -1},
            },
        )
        with pytest.raises(ConfigurationError, match="PolynomialTheta exponent .* got -1"):
            run_sweep(spec, executor=executor, retries=3)

    @pytest.mark.parametrize("executor, seeds", POOL_CASES)
    def test_contract_holds_through_a_pool_crash(self, executor, seeds):
        from repro.sweep import FaultPlan, FaultRule

        plan = FaultPlan(rules=(FaultRule(fault="worker-kill", index=1, attempts=(1,)),))
        recorded = self._record(executor, seeds, retries=0, faults=plan)
        self._assert_contract(recorded)
        crash_failed = [
            e for e in recorded["events"] if e[0] == "failed"
        ]
        assert crash_failed  # at least the killed task reported a failure


class TestParity:
    def test_all_executors_produce_byte_identical_results(self):
        spec = tiny_spec()
        reference = run_sweep(spec, executor="serial")
        for executor in ALL_EXECUTORS[1:]:
            other = run_sweep(spec, executor=executor)
            assert [r.to_dict() for r in other.results] == [
                r.to_dict() for r in reference.results
            ]

    def test_result_carries_executor_metadata(self):
        result = run_sweep(tiny_spec(seeds=(7,)), executor="serial")
        assert result.executor == "serial"
        assert result.executed == len(result)
        assert result.loaded == 0


class TestDeprecations:
    def test_run_sweep_has_no_workers_keyword(self):
        with pytest.raises(TypeError, match="workers"):
            run_sweep(tiny_spec(seeds=(7,)), workers=1)

    def test_package_level_execute_task_removed(self):
        import repro.sweep

        with pytest.raises(AttributeError):
            repro.sweep.execute_task

    def test_engine_and_executors_modules_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.sweep.engine import execute_task as from_engine
            from repro.sweep.executors import execute_task as from_executors
        assert from_engine is from_executors

    def test_unknown_package_attribute_still_raises(self):
        import repro.sweep

        with pytest.raises(AttributeError):
            repro.sweep.does_not_exist


class TestExecuteTaskDirectly:
    def test_execute_task_runs_one_task(self):
        task = tiny_spec(seeds=(7,)).validate()[0]
        result, duration = execute_task(task)
        assert result.converged in (True, False)
        assert result.protocol_result is None
        assert duration > 0

    def test_outcome_tuple_shape(self):
        task = tiny_spec(seeds=(7,)).validate()[0]
        outcomes = list(SerialExecutor().run([task], ExecutorContext()))
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert isinstance(outcome, TaskOutcome)
        assert outcome.task is task
        assert outcome.duration > 0
