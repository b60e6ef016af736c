"""Pluggable sweep executors: where and how sweep tasks run.

:func:`~repro.sweep.engine.run_sweep` no longer hard-wires a local process
pool — it hands the pending task list to a :class:`SweepExecutor`, an object
that schedules tasks and streams back one :class:`TaskOutcome` per task, in
whatever order they complete.  Executors are registered components
(:data:`repro.registry.executor_registry`), selected by name, JSON spec or
instance::

    run_sweep(spec, executor="serial")
    run_sweep(spec, executor={"name": "process-pool", "options": {"max_workers": 8}})
    run_sweep(spec, executor=ProcessPoolSweepExecutor(max_workers=8))

Two executors ship here:

* ``serial`` — every task inline in the coordinating process, in task order.
  The deterministic reference path and the default.
* ``process-pool`` — a :class:`concurrent.futures.ProcessPoolExecutor` with
  a fixed in-flight window: at most ``2 × workers`` task attempts are
  submitted-but-unfinished at any moment, a new one is submitted as each
  completes, and results stream back in completion order.  Coordinator
  memory (futures, pickled payloads) stays proportional to the window, not
  the grid.

A third backend, ``distributed`` (:mod:`repro.sweep.distributed`), runs
tasks in separate worker *daemons* — spawned locally or started by hand on
any host sharing the store directory — coordinated entirely through the
store's filesystem work queue (:mod:`repro.sweep.queue`).  It honours the
same contract below; its ``task_started`` events are reconstructed from
queue observations and it additionally reports reclaimed leases through
``on_lease_reclaimed``.

Event ordering contract (all executors)
---------------------------------------

The engine emits ``task_started`` from the executor's ``on_started``
callback and ``task_finished`` as outcomes arrive.  Every executor must
guarantee, and the built-ins do:

1. every task yields exactly one ``task_started`` per *execution attempt*
   and exactly one terminal event — ``task_finished`` on success,
   ``task_quarantined`` after its retry budget is exhausted;
2. a task's first ``task_started`` precedes its terminal event, and every
   retry's ``task_started`` follows the failed attempt it retries;
3. *first-attempt* ``task_started`` events are emitted in task-index order
   (retries re-enter the window as slots free up and may interleave);
4. ``task_started`` marks *submission into the executor's in-flight window*
   — serial's window is 1 (strict start/finish interleave, task order) and
   process-pool's is ``2 × workers`` (at most that many started-but-
   unfinished attempts at any moment);
5. per-task ``duration`` is measured worker-side around the task's actual
   execution (:func:`execute_task`), identically for every executor.

Without retries (the default policy) attempt numbers are all 1 and rules
1–3 reduce to the original one-start/one-finish contract.

Fault tolerance (:mod:`repro.sweep.faults`): a failed attempt (exception or
worker-side timeout) is reported through the context's ``on_task_failed``
callback and re-enqueued while the :class:`~repro.sweep.faults.RetryPolicy`
allows, then surfaced as a quarantine outcome (``outcome.failure`` set,
``outcome.result`` ``None``) instead of aborting the sweep.  The process
pool additionally survives worker death: on ``BrokenProcessPool`` it
respawns the pool and requeues only the in-flight attempts (budgeted by
``RetryPolicy.crash_requeues``, separate from failure retries), each of
which then runs alone, so only the attempt that really kills its worker is
charged again.

Determinism: executors only schedule — every task carries its own seed and
nothing about placement, completion order or retry history feeds back into
a task — so all executors, at any worker count, produce byte-identical
results (the engine re-orders outcomes by task index), including under an
injected :class:`~repro.sweep.faults.FaultPlan` whose surviving tasks are
re-run to success.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError
from repro.registry import executor_registry, register_executor
from repro.session.result import RunResult
from repro.session.simulation import Simulation
from repro.sweep.faults import (
    FaultPlan,
    RetryPolicy,
    TaskFailure,
    crash_payload,
    failure_from_payload,
    failure_payload,
    fatal_error_from_payload,
    is_fatal_error,
    mark_worker_process,
    task_timeout_guard,
    trigger_fault,
)
from repro.sweep.spec import SweepTask

__all__ = [
    "SweepExecutor",
    "ExecutorContext",
    "TaskOutcome",
    "SerialExecutor",
    "ProcessPoolSweepExecutor",
    "resolve_executor",
    "executor_from_any",
    "execute_task",
]


class TaskOutcome(NamedTuple):
    """One terminal task outcome as streamed back by an executor.

    Success sets ``result``; quarantine (the task exhausted its retry
    budget) sets ``failure`` and leaves ``result`` ``None``.  ``attempt`` is
    the attempt number that produced the outcome (1 unless the task was
    retried or crash-requeued).
    """

    task: SweepTask
    result: Optional[RunResult]
    #: Worker-side wall-clock seconds for this task.
    duration: float
    failure: Optional[TaskFailure] = None
    attempt: int = 1


def _noop_started(task: SweepTask, attempt: int = 1) -> None:
    return None


def _noop_failed(
    task: SweepTask, attempt: int, error: Dict[str, Any], will_retry: bool, delay: float
) -> None:
    return None


def _noop_reclaimed(task: SweepTask, attempt: int, worker: str, will_retry: bool) -> None:
    return None


@dataclass(frozen=True)
class ExecutorContext:
    """What the engine hands an executor besides the tasks themselves.

    ``on_started`` must be called exactly once per *execution attempt*, at
    the moment the attempt enters the executor's in-flight window (see the
    module docstring's ordering contract); the engine turns it into the
    ``task_started`` event.  ``on_task_failed`` is called once per failed
    attempt with the structured error payload, whether the task will be
    retried, and the deterministic backoff delay; the engine turns it into
    ``task_failed`` (+ ``task_retried``) events.  ``store_path`` is the
    content-addressed result store the workers persist into, or ``None``.
    ``retry_policy``/``task_timeout``/``faults`` configure the resilience
    layer (:mod:`repro.sweep.faults`) identically for every executor.
    """

    store_path: Optional[str] = None
    on_started: Callable[..., None] = field(default=_noop_started)
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    task_timeout: Optional[float] = None
    faults: Optional[FaultPlan] = None
    on_task_failed: Callable[..., None] = field(default=_noop_failed)
    #: Called by the distributed coordinator when it declares a worker dead
    #: and reclaims its expired lease: ``(task, attempt, worker_id,
    #: will_retry)``.  The engine turns it into a ``lease_reclaimed`` event;
    #: in-process executors never call it.
    on_lease_reclaimed: Callable[..., None] = field(default=_noop_reclaimed)


def execute_task(
    task: SweepTask,
    *,
    store: Optional[Any] = None,
    timeout: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    attempt: int = 1,
) -> Tuple[RunResult, float]:
    """Run one sweep task to completion; returns ``(result, seconds)``.

    This is the whole per-worker protocol: materialise the task's
    :class:`~repro.session.config.SessionConfig`, fetch the shared scenario
    data from the per-worker memo when the runner does not mutate it,
    assemble a :class:`~repro.session.simulation.Simulation`, hand it to
    the task's registered runner, and return the runner's JSON-exportable
    :class:`RunResult`.  The raw ``protocol_result`` is dropped — it is not
    part of the exportable surface and would dominate pickling cost.

    Runners registered with ``mutates_scenario=False`` share one built
    :class:`~repro.datasets.scenarios.ScenarioData` per
    ``(scenario, ScenarioConfig)`` key and process; every other runner gets
    ``data=None``, so its :class:`Simulation` builds a fresh scenario.
    Results are byte-identical either way.

    When *store* (a :class:`~repro.sweep.store.ResultStore` or its root
    path) is given, the finished result is persisted under the task's
    content hash *before* returning — so a killed sweep keeps every task
    that completed, which is what makes resume work.

    The resilience knobs are opt-in: *timeout* arms a worker-side
    :func:`~repro.sweep.faults.task_timeout_guard` around the whole
    execution (scenario build included), and a matching *faults* rule for
    ``(task, attempt)`` fires at the top of the attempt — both raise into
    the caller, which owns retry/quarantine handling.
    """
    from repro.sweep.cache import runner_mutates_scenario, scenario_data_for
    from repro.sweep.runners import resolve_runner
    from repro.sweep.store import ResultStore, task_hash

    store_obj = ResultStore.from_any(store)
    runner = resolve_runner(task.runner)
    started = time.perf_counter()
    with task_timeout_guard(timeout):
        config = task.session_config()
        if faults:
            rule = faults.match(task_hash(task), task.index, attempt)
            if rule is not None:
                trigger_fault(rule)
        data = None if runner_mutates_scenario(runner) else scenario_data_for(config)
        simulation = Simulation(config, data=data)
        result = runner(simulation, dict(task.options))
    result.protocol_result = None
    duration = time.perf_counter() - started
    if store_obj is not None:
        store_obj.put(task, result, duration)
    return result, duration


def _execute_payload_envelope(
    payload: Dict[str, object],
    store_path: Optional[str] = None,
    timeout: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    attempt: int = 1,
) -> Dict[str, Any]:
    """Fault-tolerant pool entry point: run one attempt, return an envelope.

    Exceptions (organic, injected, or timeout) are converted into an
    ``{"status": "error", ...}`` envelope worker-side so the coordinator can
    apply retry policy without the pool treating the task as poisonous.
    Marks the process as a pool worker first, so an injected ``worker-kill``
    rule takes the real ``os._exit`` path.
    """
    mark_worker_process()
    started = time.perf_counter()
    try:
        result, duration = execute_task(
            SweepTask.from_dict(payload),
            store=store_path,
            timeout=timeout,
            faults=faults,
            attempt=attempt,
        )
    except Exception as error:
        return {
            "status": "error",
            "duration": time.perf_counter() - started,
            "error": failure_payload(error, attempt),
        }
    return {"status": "ok", "result": result, "duration": duration}


class SweepExecutor(ABC):
    """The executor protocol: schedule tasks, stream back outcomes.

    Implementations receive the *pending* task list (resume already removed
    tasks with stored results) and an :class:`ExecutorContext`, and yield one
    :class:`TaskOutcome` per task in any order.  They must honour the event
    ordering contract documented in the module docstring, run every task
    through :func:`execute_task` (or :func:`_execute_payload_envelope`
    across a process boundary) so durations and store persistence behave
    identically everywhere, and never let scheduling feed back into task
    inputs.
    """

    #: Registered name, for display and the ``SweepResult.executor`` field.
    name: str = "?"

    @abstractmethod
    def run(
        self, tasks: Iterable[SweepTask], context: ExecutorContext
    ) -> Iterator[TaskOutcome]:
        """Execute *tasks*, yielding a :class:`TaskOutcome` per task."""

    @property
    def workers(self) -> int:
        """Informational worker count (results never depend on it)."""
        return 1

    def describe(self) -> str:
        """A short human-readable identifier for logs and JSONL headers."""
        return self.name


@register_executor("serial", aliases=("inline",))
class SerialExecutor(SweepExecutor):
    """Run every task inline in the coordinating process, in task order.

    The deterministic reference path: in-flight window of 1, so
    ``task_started`` / ``task_finished`` strictly interleave.
    """

    name = "serial"

    def run(
        self, tasks: Iterable[SweepTask], context: ExecutorContext
    ) -> Iterator[TaskOutcome]:
        from repro.sweep.store import task_hash

        policy = context.retry_policy
        for task in tasks:
            attempt = 1
            failures = 0
            cached_hash: Optional[str] = None
            while True:
                context.on_started(task, attempt)
                started = time.perf_counter()
                try:
                    result, duration = execute_task(
                        task,
                        store=context.store_path,
                        timeout=context.task_timeout,
                        faults=context.faults,
                        attempt=attempt,
                    )
                except Exception as error:
                    if is_fatal_error(error):
                        # Deterministic misconfiguration: abort the sweep
                        # instead of burning retries or quarantining.
                        raise
                    payload = failure_payload(error, attempt)
                    failures += 1
                    if cached_hash is None:
                        cached_hash = task_hash(task)
                    will_retry = failures < policy.max_attempts
                    delay = policy.delay(cached_hash, attempt) if will_retry else 0.0
                    context.on_task_failed(task, attempt, payload, will_retry, delay)
                    if will_retry:
                        if delay > 0:
                            time.sleep(delay)
                        attempt += 1
                        continue
                    yield TaskOutcome(
                        task,
                        None,
                        time.perf_counter() - started,
                        failure=failure_from_payload(task, cached_hash, payload),
                        attempt=attempt,
                    )
                    break
                yield TaskOutcome(task, result, duration, attempt=attempt)
                break


def _effective_workers(max_workers: Optional[int], total: int) -> int:
    if max_workers is not None and max_workers < 1:
        raise ConfigurationError(f"max_workers must be at least 1, got {max_workers}")
    limit = max_workers if max_workers is not None else (os.cpu_count() or 1)
    return max(1, min(limit, total))


class _Attempt:
    """Mutable per-task retry state inside a pool run."""

    __slots__ = ("task", "attempt", "failures", "crashes", "delay", "task_hash")

    def __init__(self, task: SweepTask) -> None:
        self.task = task
        self.attempt = 1
        self.failures = 0
        self.crashes = 0
        self.delay = 0.0
        self.task_hash: Optional[str] = None

    def hash(self) -> str:
        if self.task_hash is None:
            from repro.sweep.store import task_hash

            self.task_hash = task_hash(self.task)
        return self.task_hash


class _PoolRun:
    """The fault-tolerant process-pool driver.

    At most ``2 × workers`` attempts are in flight; each completion tops the
    window up, queued retries first, then fresh tasks in index order.  The
    driver owns retry/quarantine bookkeeping and crash recovery:

    * a worker-side failure arrives as an error envelope — while the retry
      policy allows, the attempt is re-enqueued (ahead of fresh tasks, after
      its deterministic backoff) and otherwise quarantined;
    * worker death breaks the whole pool (``concurrent.futures`` semantics:
      every in-flight future fails with ``BrokenProcessPool`` at once) — the
      driver salvages envelopes that completed before the break, respawns
      the pool, and requeues exactly the in-flight attempts, each charged
      one crash against ``RetryPolicy.crash_requeues``;
    * an attempt of a task that has been charged a crash runs alone: it waits
      for an empty window and nothing else is submitted while it is in
      flight, so a later break is charged to the task that caused it and to
      no bystander.

    All pending futures always belong to the current pool: a break fails
    them all simultaneously and recovery respawns before anything new is
    submitted, which is what keeps the event-ordering contract intact
    across crashes.
    """

    def __init__(
        self, tasks: Iterable[SweepTask], context: ExecutorContext, workers: int
    ) -> None:
        self.iterator = iter(tasks)
        self.context = context
        self.policy = context.retry_policy
        self.workers = workers
        self.window = 2 * workers
        self.pool: Optional[ProcessPoolExecutor] = None
        self.pending: Dict[Any, _Attempt] = {}
        self.ready: "deque[_Attempt]" = deque()
        self.out: "deque[TaskOutcome]" = deque()

    def outcomes(self) -> Iterator[TaskOutcome]:
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            self._fill()
            while self.pending or self.ready or self.out:
                # Drain finished outcomes BEFORE topping the window up: the
                # coordinator emits task_finished as each outcome is yielded,
                # and rule 4 (start = admission to the in-flight window)
                # requires those finishes to precede the next starts.
                while self.out:
                    yield self.out.popleft()
                self._fill()
                if not self.pending:
                    continue
                done, _ = wait(self.pending, return_when=FIRST_COMPLETED)
                crashed: List[Tuple[_Attempt, BaseException]] = []
                for future in done:
                    state = self.pending.pop(future)
                    try:
                        envelope = future.result()
                    except BrokenExecutor as error:
                        crashed.append((state, error))
                    else:
                        self._handle_envelope(state, envelope)
                if crashed:
                    self._recover(crashed)
        finally:
            self.pool.shutdown(wait=True, cancel_futures=True)

    def _fill(self) -> None:
        """Top the in-flight window up: queued retries first, then fresh tasks."""
        while len(self.pending) < self.window:
            if any(state.crashes for state in self.pending.values()):
                return
            if self.ready:
                if self.ready[0].crashes and self.pending:
                    return
                state = self.ready.popleft()
                if state.delay > 0:
                    time.sleep(state.delay)
                    state.delay = 0.0
            else:
                task = next(self.iterator, None)
                if task is None:
                    return
                state = _Attempt(task)
            self._submit(state)

    def _submit(self, state: _Attempt) -> None:
        self.context.on_started(state.task, state.attempt)
        try:
            future = self.pool.submit(
                _execute_payload_envelope,
                state.task.to_dict(),
                self.context.store_path,
                self.context.task_timeout,
                self.context.faults,
                state.attempt,
            )
        except BrokenExecutor:
            # The pool broke between the last wait and this submit.  The
            # submission never reached a worker, so this attempt is not
            # charged a crash: recover the in-flight futures, respawn, and
            # resubmit the same attempt (its task_started already fired,
            # matching contract rule 1 — the attempt still runs once).
            self._recover([])
            future = self.pool.submit(
                _execute_payload_envelope,
                state.task.to_dict(),
                self.context.store_path,
                self.context.task_timeout,
                self.context.faults,
                state.attempt,
            )
        self.pending[future] = state

    def _handle_envelope(self, state: _Attempt, envelope: Dict[str, Any]) -> None:
        if envelope["status"] == "ok":
            self.out.append(
                TaskOutcome(
                    state.task, envelope["result"], envelope["duration"], attempt=state.attempt
                )
            )
            return
        payload = envelope["error"]
        if payload.get("fatal"):
            raise fatal_error_from_payload(payload)
        state.failures += 1
        will_retry = state.failures < self.policy.max_attempts
        delay = self.policy.delay(state.hash(), state.attempt) if will_retry else 0.0
        self.context.on_task_failed(state.task, state.attempt, payload, will_retry, delay)
        if will_retry:
            state.attempt += 1
            state.delay = delay
            self.ready.append(state)
            return
        self.out.append(
            TaskOutcome(
                state.task,
                None,
                envelope["duration"],
                failure=failure_from_payload(state.task, state.hash(), payload),
                attempt=state.attempt,
            )
        )

    def _recover(self, crashed: List[Tuple[_Attempt, BaseException]]) -> None:
        """Salvage a broken pool: drain its futures, respawn, requeue crashes."""
        for future, state in list(self.pending.items()):
            del self.pending[future]
            try:
                envelope = future.result()
            except BrokenExecutor as error:
                crashed.append((state, error))
            else:
                # Completed before the break; its result (and store entry)
                # survives the crash.
                self._handle_envelope(state, envelope)
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        crashed.sort(key=lambda pair: (pair[0].task.index, pair[0].attempt))
        for state, error in crashed:
            payload = crash_payload(error, state.attempt)
            state.crashes += 1
            will_retry = state.crashes <= self.policy.crash_requeues
            self.context.on_task_failed(
                state.task, state.attempt, payload, will_retry, 0.0
            )
            if will_retry:
                state.attempt += 1
                state.delay = 0.0
                self.ready.append(state)
            else:
                self.out.append(
                    TaskOutcome(
                        state.task,
                        None,
                        0.0,
                        failure=failure_from_payload(state.task, state.hash(), payload),
                        attempt=state.attempt,
                    )
                )


@register_executor("process-pool", aliases=("pool",))
class ProcessPoolSweepExecutor(SweepExecutor):
    """Fan tasks out over a ``concurrent.futures`` process pool.

    The pool has ``min(max_workers, tasks)`` processes (``max_workers=None``
    uses the CPU count) and at most ``2 × workers`` attempts in flight; a
    new attempt is submitted as each one completes, and outcomes stream back
    in completion order.  With one worker (or one task) it degrades to the
    serial path — same results, no pool overhead.
    """

    name = "process-pool"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(f"max_workers must be at least 1, got {max_workers}")
        self.max_workers = max_workers

    @property
    def workers(self) -> int:
        return self.max_workers if self.max_workers is not None else (os.cpu_count() or 1)

    def describe(self) -> str:
        return f"{self.name}({self.workers})"

    def run(
        self, tasks: Iterable[SweepTask], context: ExecutorContext
    ) -> Iterator[TaskOutcome]:
        tasks = list(tasks)
        workers = _effective_workers(self.max_workers, len(tasks))
        if workers == 1:
            yield from SerialExecutor().run(tasks, context)
            return
        yield from _PoolRun(tasks, context, workers).outcomes()


def resolve_executor(executor: Optional[Any] = None) -> SweepExecutor:
    """The :class:`SweepExecutor` for an ``executor=`` argument.

    *executor* may be ``None`` (the serial executor), an executor instance
    (returned as-is), a registered name (``"serial"``, ``"process-pool"``,
    ``"distributed"``) or a JSON-style spec ``{"name": ..., "options": {...}}``.
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, SweepExecutor):
        return executor
    if isinstance(executor, str):
        return executor_registry.create(executor)
    if isinstance(executor, Mapping):
        extra = sorted(set(executor) - {"name", "options"})
        if extra:
            raise ConfigurationError(
                f"unknown executor spec keys {extra}; valid keys: ['name', 'options']"
            )
        if "name" not in executor:
            raise ConfigurationError("an executor spec needs a 'name' key")
        options = dict(executor.get("options") or {})
        return executor_registry.create(executor["name"], **options)
    raise ConfigurationError(
        "expected an executor name, spec mapping or SweepExecutor instance, "
        f"got {type(executor).__name__}"
    )


def executor_from_any(
    executor: Optional[Any] = None, workers: Optional[int] = None
) -> SweepExecutor:
    """Like :func:`resolve_executor`, plus the drivers' ``workers`` count.

    The experiment drivers and their CLIs keep ``workers=N`` / ``--workers
    N`` as their parallelism flag: without *executor*, ``None`` or ``1``
    resolves to the serial executor and ``N > 1`` to a process pool with
    ``N`` workers.  *executor* wins when both are given.
    """
    if executor is not None:
        return resolve_executor(executor)
    if workers is None or workers == 1:
        return SerialExecutor()
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1, got {workers}")
    return ProcessPoolSweepExecutor(max_workers=workers)
