"""The sweep engine: expansion, resume, executor dispatch and aggregation.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec` into its
ordered task list, skips every task whose content hash already has a result
in the (optional) :class:`~repro.sweep.store.ResultStore` — **resume** —
and hands the remaining tasks to a pluggable
:class:`~repro.sweep.executors.SweepExecutor` (``serial``, ``process-pool``,
``distributed``, or any registered/constructed executor).  Outcomes
are re-ordered by task index, so the final :class:`SweepResult` is
independent of executor choice, worker count, completion order and of how
many tasks were loaded versus executed.

Determinism: every task carries its own seed (derived in the spec, never
here), each worker builds its simulation from the task's plain-dict config,
and nothing about scheduling feeds back into the tasks — so any executor
produces byte-identical results, and a resumed sweep's merged result is
byte-identical to one uninterrupted run.  A worker's scenario memo
(:mod:`repro.sweep.cache`) is shared only with runners that do not mutate
the scenario; every other task builds its own, so no task sees another
task's changes.

Progress streams through :class:`~repro.events.EventHooks`: ``task_started``
when the executor admits a task attempt to its in-flight window (see
:mod:`repro.sweep.executors` for the per-executor ordering contract),
``task_finished`` when its result arrives (completion order),
``task_skipped`` + ``task_loaded`` for store hits (before any execution
starts, in task order), ``task_failed`` / ``task_retried`` /
``task_quarantined`` for the fault-tolerance layer
(:mod:`repro.sweep.faults`), and ``sweep_end`` once at the end.

Fault tolerance: with ``retries``/``task_timeout`` (or their spec fields) a
failed task is re-executed up to the policy's budget and otherwise
**quarantined** — recorded in ``SweepResult.failures`` (and under its
content hash in the store's quarantine tier) while the sweep completes with
partial results.  A ``faults=`` plan (or the ``REPRO_SWEEP_FAULTS``
environment variable) injects deterministic chaos for testing.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional

from repro.events import (
    LEASE_RECLAIMED,
    SWEEP_END,
    TASK_FAILED,
    TASK_FINISHED,
    TASK_LOADED,
    TASK_QUARANTINED,
    TASK_RETRIED,
    TASK_SKIPPED,
    TASK_STARTED,
    EventHooks,
    LeaseReclaimedEvent,
    SweepEndEvent,
    TaskFailedEvent,
    TaskFinishedEvent,
    TaskLoadedEvent,
    TaskQuarantinedEvent,
    TaskRetriedEvent,
    TaskSkippedEvent,
    TaskStartedEvent,
)
from repro.session.result import RunResult
from repro.sweep.executors import (
    ExecutorContext,
    SweepExecutor,
    execute_task,
    resolve_executor,
)
from repro.sweep.faults import FaultPlan, RetryPolicy, TaskFailure
from repro.sweep.result import SweepResult
from repro.sweep.spec import SweepSpec, SweepTask
from repro.sweep.store import ResultStore, task_hash

__all__ = ["run_sweep", "execute_task"]


def run_sweep(
    spec: SweepSpec,
    *,
    executor: Optional[Any] = None,
    hooks: Optional[EventHooks] = None,
    jsonl_path: Optional[str] = None,
    store: Optional[Any] = None,
    resume: bool = True,
    retries: Optional[Any] = None,
    task_timeout: Optional[float] = None,
    faults: Optional[Any] = None,
) -> SweepResult:
    """Run every task of *spec* and aggregate the results.

    Parameters
    ----------
    executor:
        How tasks execute: a registered executor name (``"serial"``,
        ``"process-pool"``, ``"distributed"``), a JSON-style spec
        (``{"name": "process-pool", "options": {"max_workers": 8}}``) or a
        :class:`~repro.sweep.executors.SweepExecutor` instance.  Default:
        the serial executor.  Results are identical for every executor.
    hooks:
        Event hub receiving ``task_started`` / ``task_finished`` /
        ``task_skipped`` / ``task_loaded`` / ``sweep_end``; a private one is
        created when omitted.
    jsonl_path:
        When given, the finished sweep is persisted there as JSONL
        (see :meth:`~repro.sweep.result.SweepResult.write_jsonl`).
    store:
        A :class:`~repro.sweep.store.ResultStore` (or its root path).  Every
        finished task is persisted under its content hash as it completes.
    resume:
        With a store: skip every task whose content hash already has a
        stored result, loading it instead (default).  ``resume=False``
        re-executes everything (and refreshes the store).  The merged
        result is byte-identical either way.
    retries:
        Retry budget for failed tasks: an integer retry count, a mapping of
        :class:`~repro.sweep.faults.RetryPolicy` fields (``backoff``,
        ``jitter``, ``crash_requeues``, ...) or a policy instance.  Default:
        the spec's ``retries`` field (itself defaulting to 0 — one attempt,
        no retries).  A task that exhausts the budget is quarantined: the
        sweep completes, the failure lands in ``SweepResult.failures`` and
        (with a store) the store's quarantine tier.
    task_timeout:
        Per-task wall-clock budget in seconds, enforced worker-side via
        ``SIGALRM`` (best effort: no-op on platforms without it).  Default:
        the spec's ``task_timeout`` field.  A timed-out attempt fails like
        an exception and follows the retry policy.
    faults:
        A :class:`~repro.sweep.faults.FaultPlan` (or its JSON form) of
        deterministic chaos rules keyed by canonical task hash + attempt.
        Default: the ``REPRO_SWEEP_FAULTS`` environment variable, else
        nothing.  Test-only machinery — never set in production sweeps.
    """
    executor_obj: SweepExecutor = resolve_executor(executor)
    hooks = hooks if hooks is not None else EventHooks()
    result_store = ResultStore.from_any(store)
    retry_policy = RetryPolicy.from_any(retries if retries is not None else spec.retries)
    timeout = task_timeout if task_timeout is not None else spec.task_timeout
    fault_plan = FaultPlan.from_any(faults) if faults is not None else FaultPlan.from_env()
    tasks = spec.validate()
    total = len(tasks)
    sweep_started = time.perf_counter()
    results: List[Optional[RunResult]] = [None] * total
    durations: List[float] = [0.0] * total
    failures: List[TaskFailure] = []
    completed = 0
    loaded = 0

    # -- resume: load stored results, collect what is left to run ------------------
    pending: List[SweepTask]
    if result_store is not None and resume:
        pending = []
        for task in tasks:
            hash_hex = task_hash(task)
            stored = result_store.get(hash_hex)
            if stored is None:
                pending.append(task)
                continue
            results[task.index] = stored.result
            durations[task.index] = stored.duration
            completed += 1
            loaded += 1
            hooks.emit(
                TASK_SKIPPED,
                TaskSkippedEvent(
                    index=task.index, task=task, total=total, task_hash=hash_hex
                ),
            )
            hooks.emit(
                TASK_LOADED,
                TaskLoadedEvent(
                    index=task.index,
                    task=task,
                    result=stored.result,
                    total=total,
                    completed=completed,
                    task_hash=hash_hex,
                    duration=stored.duration,
                ),
            )
    else:
        pending = list(tasks)

    # -- execute what remains through the executor ---------------------------------
    def on_started(task: SweepTask, attempt: int = 1) -> None:
        hooks.emit(
            TASK_STARTED,
            TaskStartedEvent(index=task.index, task=task, total=total, attempt=attempt),
        )

    def on_task_failed(
        task: SweepTask, attempt: int, error: dict, will_retry: bool, delay: float
    ) -> None:
        hooks.emit(
            TASK_FAILED,
            TaskFailedEvent(
                index=task.index,
                task=task,
                total=total,
                attempt=attempt,
                error=dict(error),
                will_retry=will_retry,
            ),
        )
        if will_retry:
            hooks.emit(
                TASK_RETRIED,
                TaskRetriedEvent(
                    index=task.index,
                    task=task,
                    total=total,
                    attempt=attempt + 1,
                    delay=delay,
                ),
            )

    def on_lease_reclaimed(
        task: SweepTask, attempt: int, worker: str, will_retry: bool
    ) -> None:
        hooks.emit(
            LEASE_RECLAIMED,
            LeaseReclaimedEvent(
                index=task.index,
                task=task,
                total=total,
                attempt=attempt,
                worker=worker,
                will_retry=will_retry,
            ),
        )

    context = ExecutorContext(
        store_path=str(result_store.root) if result_store is not None else None,
        on_started=on_started,
        retry_policy=retry_policy,
        task_timeout=timeout,
        faults=fault_plan,
        on_task_failed=on_task_failed,
        on_lease_reclaimed=on_lease_reclaimed,
    )
    for outcome in executor_obj.run(pending, context):
        task = outcome.task
        if outcome.failure is not None:
            failures.append(outcome.failure)
            if result_store is not None:
                result_store.put_failure(task, outcome.failure)
            hooks.emit(
                TASK_QUARANTINED,
                TaskQuarantinedEvent(
                    index=task.index, task=task, total=total, failure=outcome.failure
                ),
            )
            continue
        results[task.index] = outcome.result
        durations[task.index] = outcome.duration
        completed += 1
        hooks.emit(
            TASK_FINISHED,
            TaskFinishedEvent(
                index=task.index,
                task=task,
                result=outcome.result,
                total=total,
                completed=completed,
                duration=outcome.duration,
                attempt=outcome.attempt,
            ),
        )

    sweep_duration = time.perf_counter() - sweep_started
    executed = total - loaded - len(failures)
    hooks.emit(
        SWEEP_END,
        SweepEndEvent(
            total=total,
            duration=sweep_duration,
            workers=executor_obj.workers,
            executed=executed,
            loaded=loaded,
            executor=executor_obj.describe(),
            quarantined=len(failures),
        ),
    )
    sweep_result = SweepResult(
        spec=spec,
        tasks=tasks,
        results=[result for result in results if result is not None],
        task_durations=durations,
        duration=sweep_duration,
        workers=executor_obj.workers,
        executor=executor_obj.describe(),
        executed=executed,
        loaded=loaded,
        failures=sorted(failures, key=lambda failure: failure.index),
    )
    if len(sweep_result.results) + len(failures) != total:  # pragma: no cover - defensive
        raise RuntimeError("sweep finished with missing task results")
    if jsonl_path is not None:
        sweep_result.write_jsonl(jsonl_path)
    return sweep_result
