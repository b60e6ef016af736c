"""Observer/event hooks for protocol rounds and maintenance periods.

The reformulation protocol and the periodic maintenance loop publish three
events while they run:

* :data:`ROUND_END` — after every executed protocol round, with the round's
  :class:`~repro.protocol.rounds.RoundResult` and the costs of the resulting
  configuration;
* :data:`RELOCATION_GRANTED` — for every granted (and applied) relocation;
* :data:`PERIOD_END` — after every maintenance period, with its
  :class:`~repro.dynamics.periodic.PeriodRecord`;
* :data:`DRIFT_APPLIED` — for every exogenous drift a
  :class:`~repro.dynamics.schedule.DynamicsSchedule` applied at the start of
  a period, carrying the model's :class:`~repro.dynamics.models.DriftReport`.

The traffic simulator (:mod:`repro.traffic`) publishes two events while it
drains a query-event stream:

* :data:`QUERY_ROUTED` — after every routed *batch* of query events (the
  simulator is batched by design; per-event callbacks would dominate the
  run), with the batch's aggregate messages/results and its time window;
* :data:`TRAFFIC_SUMMARY` — once at the end of a run, carrying the final
  :class:`~repro.traffic.report.TrafficReport`.

The sweep engine (:mod:`repro.sweep`) publishes three more events from the
coordinating process while a sweep runs:

* :data:`TASK_STARTED` — when a task is submitted for execution (a process
  pool keeps up to ``2 × workers`` attempts submitted ahead of the workers,
  so it is not a worker-pickup signal);
* :data:`TASK_FINISHED` — when a task's result arrives (in completion order,
  which under a parallel executor need not be task order);
* :data:`TASK_SKIPPED` — when resume finds a task's content hash already in
  the result store and will not execute it;
* :data:`TASK_LOADED` — immediately after ``task_skipped``, carrying the
  stored :class:`~repro.session.result.RunResult` that replaces the run;
* :data:`SWEEP_END` — once, after every task completed, loaded or was
  quarantined.

The fault-tolerance layer (:mod:`repro.sweep.faults`) adds failure events:

* :data:`TASK_FAILED` — one execution attempt of a task failed (exception,
  worker-side timeout, or worker crash), with the structured error payload;
* :data:`TASK_RETRIED` — immediately after a ``task_failed`` whose task will
  be re-enqueued, with the attempt number the retry will run as and the
  deterministic backoff delay;
* :data:`TASK_QUARANTINED` — a task exhausted its retry budget and the sweep
  continues without it (the failure also lands in ``SweepResult.failures``);
* :data:`STORE_CORRUPT` — ``ResultStore.verify()`` found an unreadable or
  hash-mismatched store entry;
* :data:`LEASE_RECLAIMED` — the distributed coordinator
  (:mod:`repro.sweep.distributed`) declared a worker dead (its lease
  heartbeat expired) and requeued or quarantined the claimed task; a
  matching ``task_failed`` (kind ``crash``) precedes it.

The executor event ordering contract (which executor emits what, when) is
documented in :mod:`repro.sweep.executors`.

Instrumentation (cost traces, convergence analysis, benchmark probes)
subscribes to these events instead of picking apart the post-hoc trace lists,
so it sees the run as it happens and works identically for discovery runs
and maintenance periods::

    hooks = EventHooks()
    hooks.on_round_end(lambda event: print(event.round_number, event.social_cost))
    protocol = ReformulationProtocol(cost_model, configuration, strategy, hooks=hooks)
    protocol.run()

Subscriber exceptions are not swallowed: observers are part of the caller's
code and a broken observer should fail loudly rather than silently corrupt
an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List

if TYPE_CHECKING:  # imported for annotations only; avoids runtime cycles
    from repro.dynamics.models import DriftReport
    from repro.dynamics.periodic import PeriodRecord
    from repro.protocol.reformulation import ProtocolResult
    from repro.protocol.rounds import GrantedMove, RoundResult

__all__ = [
    "ROUND_END",
    "RELOCATION_GRANTED",
    "PERIOD_END",
    "DRIFT_APPLIED",
    "QUERY_ROUTED",
    "TRAFFIC_SUMMARY",
    "TASK_STARTED",
    "TASK_FINISHED",
    "TASK_SKIPPED",
    "TASK_LOADED",
    "TASK_FAILED",
    "TASK_RETRIED",
    "TASK_QUARANTINED",
    "STORE_CORRUPT",
    "LEASE_RECLAIMED",
    "SWEEP_END",
    "RoundEndEvent",
    "RelocationGrantedEvent",
    "PeriodEndEvent",
    "DriftAppliedEvent",
    "QueryRoutedEvent",
    "TrafficSummaryEvent",
    "TaskStartedEvent",
    "TaskFinishedEvent",
    "TaskSkippedEvent",
    "TaskLoadedEvent",
    "TaskFailedEvent",
    "TaskRetriedEvent",
    "TaskQuarantinedEvent",
    "StoreCorruptEvent",
    "LeaseReclaimedEvent",
    "SweepEndEvent",
    "EventHooks",
    "CostTraceRecorder",
]

ROUND_END = "round_end"
RELOCATION_GRANTED = "relocation_granted"
PERIOD_END = "period_end"
DRIFT_APPLIED = "drift_applied"
QUERY_ROUTED = "query_routed"
TRAFFIC_SUMMARY = "traffic_summary"
TASK_STARTED = "task_started"
TASK_FINISHED = "task_finished"
TASK_SKIPPED = "task_skipped"
TASK_LOADED = "task_loaded"
TASK_FAILED = "task_failed"
TASK_RETRIED = "task_retried"
TASK_QUARANTINED = "task_quarantined"
STORE_CORRUPT = "store_corrupt"
LEASE_RECLAIMED = "lease_reclaimed"
SWEEP_END = "sweep_end"

#: An event callback; receives the event dataclass as its only argument.
EventCallback = Callable[[Any], None]


@dataclass(frozen=True)
class RoundEndEvent:
    """Published after every executed protocol round."""

    round_number: int
    result: "RoundResult"
    social_cost: float
    workload_cost: float
    cluster_count: int


@dataclass(frozen=True)
class RelocationGrantedEvent:
    """Published for every relocation granted (and applied) during a round."""

    round_number: int
    move: "GrantedMove"


@dataclass(frozen=True)
class PeriodEndEvent:
    """Published after every maintenance period."""

    record: "PeriodRecord"
    protocol_result: "ProtocolResult"


@dataclass(frozen=True)
class DriftAppliedEvent:
    """Published for every drift a schedule applied at the start of a period."""

    period: int
    report: "DriftReport"


@dataclass(frozen=True)
class QueryRoutedEvent:
    """Published after the traffic simulator routed one batch of query events.

    The simulator resolves whole batches against the recall matrix, so this
    is the finest-grained signal it can emit without giving the vectorised
    hot path back to Python; ``events`` counts the queries in the batch.
    """

    batch_index: int
    events: int
    time_start: float
    time_end: float
    query_messages: int
    result_messages: int
    result_items: int


@dataclass(frozen=True)
class TrafficSummaryEvent:
    """Published once when a traffic run finished, with its final report."""

    report: Any  # a repro.traffic.report.TrafficReport (Any avoids a runtime cycle)


@dataclass(frozen=True)
class TaskStartedEvent:
    """Published when the sweep engine submits a task for execution.

    A process pool keeps up to ``2 × workers`` attempts submitted, so the
    first of these events arrive in a burst before the first
    ``task_finished`` — they signal enqueueing, not a worker picking the
    task up.
    """

    index: int
    task: Any  # a repro.sweep.spec.SweepTask (Any avoids a runtime cycle)
    total: int
    #: Execution attempt this start is for (1 on the first run; retried and
    #: crash-requeued tasks emit one ``task_started`` per attempt).
    attempt: int = 1


@dataclass(frozen=True)
class TaskFinishedEvent:
    """Published when a sweep task's result arrives at the coordinator."""

    index: int
    task: Any
    result: Any  # the task's RunResult
    total: int
    completed: int
    duration: float  # worker-side wall-clock seconds for this task
    #: Attempt that produced the result (> 1 when the task was retried).
    attempt: int = 1


@dataclass(frozen=True)
class TaskSkippedEvent:
    """Published when resume found a task's hash in the store and skips it."""

    index: int
    task: Any  # a repro.sweep.spec.SweepTask
    total: int
    task_hash: str  # the task's sha256 content hash


@dataclass(frozen=True)
class TaskLoadedEvent:
    """Published when a skipped task's stored result is loaded in place of a run."""

    index: int
    task: Any
    result: Any  # the stored RunResult
    total: int
    completed: int
    task_hash: str
    duration: float  # worker seconds of the original run that produced the result


@dataclass(frozen=True)
class TaskFailedEvent:
    """Published when one execution attempt of a sweep task failed.

    ``error`` is the structured failure payload (``type``, ``message``,
    ``kind`` of ``exception``/``timeout``/``crash``, ``injected``,
    ``traceback``).  Whether the task will be re-enqueued is carried by
    ``will_retry``; a ``task_retried`` or ``task_quarantined`` event follows.
    """

    index: int
    task: Any  # a repro.sweep.spec.SweepTask
    total: int
    attempt: int
    error: Dict[str, Any]
    will_retry: bool


@dataclass(frozen=True)
class TaskRetriedEvent:
    """Published when a failed task is re-enqueued for another attempt."""

    index: int
    task: Any
    total: int
    #: Attempt number the retry will execute as.
    attempt: int
    #: Deterministic backoff seconds slept before the retry is submitted.
    delay: float


@dataclass(frozen=True)
class TaskQuarantinedEvent:
    """Published when a task exhausted its retry budget and was quarantined.

    The sweep completes without the task; ``failure`` is the terminal
    :class:`~repro.sweep.faults.TaskFailure` (also surfaced in
    ``SweepResult.failures`` and, when a store is attached, recorded under
    the task's canonical hash in the store's quarantine tier).
    """

    index: int
    task: Any
    total: int
    failure: Any  # a repro.sweep.faults.TaskFailure


@dataclass(frozen=True)
class LeaseReclaimedEvent:
    """Published when the distributed coordinator reclaimed an expired lease.

    The worker holding the claimed task stopped heartbeating for longer
    than the lease timeout; the attempt was charged one crash against
    ``RetryPolicy.crash_requeues`` and the task was requeued
    (``will_retry``) or quarantined.  If the worker was merely slow and
    still finishes, its result is byte-identical to the re-run's, so the
    reclaim is an observability signal, never a correctness one.
    """

    index: int
    task: Any  # a repro.sweep.spec.SweepTask
    total: int
    #: Attempt number the reclaimed lease was executing as.
    attempt: int
    #: Worker id that held the expired lease (``"unknown"`` when unreadable).
    worker: str
    #: Whether the task was requeued (``False`` = crash budget exhausted).
    will_retry: bool


@dataclass(frozen=True)
class StoreCorruptEvent:
    """Published by ``ResultStore.verify()`` for each corrupt store entry."""

    task_hash: str
    path: str
    reason: str
    #: Whether ``verify(purge=True)`` removed the entry.
    purged: bool = False


@dataclass(frozen=True)
class SweepEndEvent:
    """Published once after the last task of a sweep completed (or was loaded)."""

    total: int
    duration: float  # coordinator wall-clock seconds for the whole sweep
    workers: int
    #: Tasks actually executed this run (``total`` minus store loads).
    executed: int = 0
    #: Tasks whose results were loaded from the content-addressed store.
    loaded: int = 0
    #: ``describe()`` string of the executor that ran the sweep.
    executor: str = "serial"
    #: Tasks that exhausted their retry budget and have no result.
    quarantined: int = 0


class EventHooks:
    """A minimal synchronous publish/subscribe hub for simulation events."""

    def __init__(self) -> None:
        self._subscribers: Dict[str, List[EventCallback]] = {}

    def subscribe(self, event: str, callback: EventCallback) -> Callable[[], None]:
        """Register *callback* for *event*; returns an unsubscribe function."""
        callbacks = self._subscribers.setdefault(event, [])
        callbacks.append(callback)

        def unsubscribe() -> None:
            try:
                callbacks.remove(callback)
            except ValueError:
                pass  # already unsubscribed

        return unsubscribe

    # Convenience registrars for the three built-in events.

    def on_round_end(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`ROUND_END` (receives a :class:`RoundEndEvent`)."""
        return self.subscribe(ROUND_END, callback)

    def on_relocation_granted(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`RELOCATION_GRANTED` (receives a :class:`RelocationGrantedEvent`)."""
        return self.subscribe(RELOCATION_GRANTED, callback)

    def on_period_end(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`PERIOD_END` (receives a :class:`PeriodEndEvent`)."""
        return self.subscribe(PERIOD_END, callback)

    def on_drift_applied(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`DRIFT_APPLIED` (receives a :class:`DriftAppliedEvent`)."""
        return self.subscribe(DRIFT_APPLIED, callback)

    def on_query_routed(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`QUERY_ROUTED` (receives a :class:`QueryRoutedEvent`)."""
        return self.subscribe(QUERY_ROUTED, callback)

    def on_traffic_summary(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`TRAFFIC_SUMMARY` (receives a :class:`TrafficSummaryEvent`)."""
        return self.subscribe(TRAFFIC_SUMMARY, callback)

    def on_task_started(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`TASK_STARTED` (receives a :class:`TaskStartedEvent`)."""
        return self.subscribe(TASK_STARTED, callback)

    def on_task_finished(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`TASK_FINISHED` (receives a :class:`TaskFinishedEvent`)."""
        return self.subscribe(TASK_FINISHED, callback)

    def on_task_skipped(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`TASK_SKIPPED` (receives a :class:`TaskSkippedEvent`)."""
        return self.subscribe(TASK_SKIPPED, callback)

    def on_task_loaded(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`TASK_LOADED` (receives a :class:`TaskLoadedEvent`)."""
        return self.subscribe(TASK_LOADED, callback)

    def on_task_failed(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`TASK_FAILED` (receives a :class:`TaskFailedEvent`)."""
        return self.subscribe(TASK_FAILED, callback)

    def on_task_retried(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`TASK_RETRIED` (receives a :class:`TaskRetriedEvent`)."""
        return self.subscribe(TASK_RETRIED, callback)

    def on_task_quarantined(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`TASK_QUARANTINED` (receives a :class:`TaskQuarantinedEvent`)."""
        return self.subscribe(TASK_QUARANTINED, callback)

    def on_store_corrupt(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`STORE_CORRUPT` (receives a :class:`StoreCorruptEvent`)."""
        return self.subscribe(STORE_CORRUPT, callback)

    def on_lease_reclaimed(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`LEASE_RECLAIMED` (receives a :class:`LeaseReclaimedEvent`)."""
        return self.subscribe(LEASE_RECLAIMED, callback)

    def on_sweep_end(self, callback: EventCallback) -> Callable[[], None]:
        """Subscribe to :data:`SWEEP_END` (receives a :class:`SweepEndEvent`)."""
        return self.subscribe(SWEEP_END, callback)

    def emit(self, event: str, payload: Any) -> None:
        """Deliver *payload* to every subscriber of *event*, in subscription order."""
        for callback in tuple(self._subscribers.get(event, ())):
            callback(payload)

    def subscriber_count(self, event: str) -> int:
        """Number of live subscriptions for *event*."""
        return len(self._subscribers.get(event, ()))

    def __repr__(self) -> str:
        counts = {event: len(callbacks) for event, callbacks in self._subscribers.items() if callbacks}
        return f"EventHooks(subscribers={counts})"


@dataclass
class CostTraceRecorder:
    """An observer that accumulates per-round cost traces from events.

    Equivalent to reading ``ProtocolResult``'s trace lists after the fact,
    but usable live (progress displays, convergence monitors) and across
    maintenance periods, where a fresh protocol result is produced per
    period::

        recorder = CostTraceRecorder()
        recorder.attach(hooks)
    """

    social_cost: List[float] = field(default_factory=list)
    workload_cost: List[float] = field(default_factory=list)
    cluster_count: List[int] = field(default_factory=list)
    moves: List["GrantedMove"] = field(default_factory=list)

    def attach(self, hooks: EventHooks) -> "CostTraceRecorder":
        """Subscribe this recorder to *hooks* and return it."""
        hooks.on_round_end(self._record_round)
        hooks.on_relocation_granted(self._record_move)
        return self

    def _record_round(self, event: RoundEndEvent) -> None:
        self.social_cost.append(event.social_cost)
        self.workload_cost.append(event.workload_cost)
        self.cluster_count.append(event.cluster_count)

    def _record_move(self, event: RelocationGrantedEvent) -> None:
        self.moves.append(event.move)
