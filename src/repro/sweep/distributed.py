"""The distributed sweep backend: coordinator executor + worker daemons.

This is the execution layer the ROADMAP promised once the store, retry and
chaos tiers existed: any number of worker *processes* — spawned locally by
the coordinator, started by hand in another terminal, or running on other
hosts that mount the same store directory — drain the store's filesystem
work queue (:mod:`repro.sweep.queue`) and persist results into the shared
content-addressed :class:`~repro.sweep.store.ResultStore`.

Coordinator (:class:`DistributedSweepExecutor`, registered as
``distributed``):

* writes the sweep's execution policy (retry policy, task timeout, fault
  plan, lease timings) into ``queue/config.json``;
* enqueues every pending task as a claimable entry;
* optionally spawns N local ``repro sweep-worker`` daemons (tests, CI,
  single-host runs) and respawns them if they die;
* *tails* the queue and store to reconstruct the executor event contract —
  ``task_started`` / ``task_failed`` / ``task_retried`` /
  ``task_quarantined`` and one terminal outcome per task — purely from
  observations: a lease appearing is a started attempt, a failure record is
  a failed attempt, an entry gone from both queue directories with a stored
  result (or quarantine record) is the terminal outcome;
* keeps one :class:`~repro.sweep.faults.AttemptRecord` per task, the record
  the serial and pool executors decide by: each failure record a worker
  journals is charged to it as well, so it stays in step with the
  ``(attempt, failures, crashes)`` triple the queue entries carry;
* reclaims expired leases: a worker that stops heartbeating loses its
  claim, and the attempt is charged to the record as one crash (exactly
  like a pool worker death), which requeues the task or, once the retry
  policy's ``crash_requeues`` budget is spent, quarantines it; a
  ``lease_reclaimed`` event is emitted.  An entry that leaves the queue
  with no stored result and no quarantine record is charged the same way
  after one lease timeout.

Because workers always claim the lowest-index pending entry, observing any
activity for task *i* proves every lower-index first attempt was already
claimed — which is how the coordinator emits first-attempt ``task_started``
events in task-index order (contract rule 3) without any channel beyond the
filesystem.

Worker daemon (:func:`run_worker`, the ``repro sweep-worker`` CLI): polls
the queue, claims entries, renews its lease heartbeat on a background
thread while :func:`~repro.sweep.executors.execute_task` runs the task
(store persistence included, identical to every other executor), journals
each failed attempt and charges it to the record rebuilt from the claimed
entry, then re-enqueues the task or quarantines it into the store as the
record decides.  Deterministic
misconfigurations (:func:`~repro.sweep.faults.is_fatal_error`) are recorded
as a fatal payload the coordinator re-raises, matching the serial path.

Determinism: workers execute tasks through the same
:func:`~repro.sweep.executors.execute_task` protocol as every other
executor and each task carries its own seed, so a distributed run is
byte-identical to a serial one at any worker count, including under an
injected :class:`~repro.sweep.faults.FaultPlan` with real worker kills.
Double execution after a lease reclaim (the "dead" worker was merely slow)
is harmless for the same reason: both executions write the same bytes.
"""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Union

from repro.errors import ConfigurationError
from repro.registry import register_executor
from repro.sweep.executors import (
    ExecutorContext,
    SweepExecutor,
    TaskOutcome,
    execute_task,
)
from repro.sweep.faults import (
    AttemptRecord,
    FaultPlan,
    RetryPolicy,
    crash_payload,
    failure_payload,
    fatal_error_from_payload,
)
from repro.sweep.queue import (
    DEFAULT_LEASE_TIMEOUT,
    Lease,
    QueueEntry,
    TaskQueue,
    default_worker_id,
)
from repro.sweep.spec import SweepTask
from repro.sweep.store import ResultStore, task_hash

__all__ = ["DistributedSweepExecutor", "run_worker"]

logger = logging.getLogger("repro.sweep.distributed")

#: Local daemons spawned when ``workers=None`` never exceed this, however
#: many cores the host has — each one is a full interpreter, not a pool fork.
MAX_DEFAULT_SPAWN = 8


# -- worker daemon ---------------------------------------------------------------


class _LeaseRenewer(threading.Thread):
    """Heartbeats a held lease (and the worker's liveness file) while a task runs."""

    def __init__(self, lease: Lease, queue: TaskQueue, worker_id: str, interval: float) -> None:
        super().__init__(name="sweep-lease-renewer", daemon=True)
        self.lease = lease
        self.queue = queue
        self.worker_id = worker_id
        self.interval = max(0.05, float(interval))
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.wait(self.interval):
            if not self.lease.renew():
                return  # the coordinator declared us dead and took the lease
            self.queue.heartbeat_worker(self.worker_id)

    def stop(self) -> None:
        self._stopped.set()
        self.join(timeout=5.0)


def _run_claimed(store: ResultStore, queue: TaskQueue, lease: Lease, worker_id: str) -> str:
    """Run one claimed entry to a terminal state; returns what happened.

    ``"ok"`` — finished, result persisted (by :func:`execute_task`) and the
    lease released.  ``"failed"`` — the attempt failed: a failure record was
    journaled, and the entry was re-enqueued (retry budget permitting) or
    quarantined into the store.  ``"lost"`` — the coordinator reclaimed the
    lease mid-run; all bookkeeping belongs to the reclaimer.  ``"fatal"`` —
    a deterministic misconfiguration was recorded for the coordinator to
    re-raise; the worker should stop.
    """
    config = queue.read_config()
    entry = lease.entry
    task = SweepTask.from_dict(entry.task)
    policy = RetryPolicy.from_any(config.get("retry_policy"))
    faults = FaultPlan.from_any(config.get("faults")) if config.get("faults") else None
    heartbeat = float(config.get("heartbeat_interval") or max(0.5, queue.lease_timeout / 4.0))
    renewer = _LeaseRenewer(lease, queue, worker_id, heartbeat)
    renewer.start()
    try:
        execute_task(
            task,
            store=store,
            timeout=config.get("task_timeout"),
            faults=faults,
            attempt=entry.attempt,
        )
    except Exception as error:
        renewer.stop()
        payload = failure_payload(error, entry.attempt)
        if payload["fatal"]:
            queue.record_fatal(payload)
            lease.release()
            return "fatal"
        if lease.lost:
            return "lost"
        record = AttemptRecord(entry.attempt, entry.failures, entry.crashes)
        delay, failure = record.charge(policy, task, entry.task_hash, payload)
        # Journal first, re-enqueue second, release last: the entry is never
        # absent from the queue without its failure having been recorded,
        # which is what lets the coordinator order events correctly.
        queue.record_failure(entry, payload, will_retry=failure is None, delay=delay)
        if failure is None:
            queue.enqueue(
                QueueEntry(
                    task=entry.task,
                    task_hash=entry.task_hash,
                    index=entry.index,
                    attempt=record.attempt,
                    failures=record.failures,
                    crashes=record.crashes,
                    not_before=time.time() + delay if delay > 0 else 0.0,
                )
            )
        else:
            store.put_failure(task, failure)
        lease.release()
        return "failed"
    renewer.stop()
    lease.release()
    return "ok"


def run_worker(
    store: Union[str, Path, ResultStore],
    *,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.2,
    drain: bool = False,
    max_tasks: Optional[int] = None,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    should_stop: Optional[Callable[[], bool]] = None,
) -> int:
    """Drain *store*'s work queue until stopped; returns tasks processed.

    The daemon loop behind ``repro sweep-worker``: register a liveness
    file, poll ``queue/pending/``, claim the lowest-index entry, run it
    under the coordinator-published execution policy, repeat.  Exits when
    the queue's ``STOP`` marker appears, after ``max_tasks`` claims, when
    *should_stop* returns true, when a fatal misconfiguration is recorded,
    or — with ``drain=True`` — once the queue is empty.

    This function is process-agnostic (tests run it on a thread); the CLI
    entry point additionally calls
    :func:`~repro.sweep.faults.mark_worker_process` so injected
    ``worker-kill`` faults take the real ``os._exit`` path.
    """
    store_obj = ResultStore.from_any(store)
    queue = TaskQueue(store_obj.root, lease_timeout=lease_timeout)
    wid = worker_id or default_worker_id()
    queue.register_worker(wid)
    processed = 0
    try:
        while True:
            if queue.stop_requested():
                break
            if should_stop is not None and should_stop():
                break
            queue.heartbeat_worker(wid)
            lease = queue.claim(wid)
            if lease is None:
                if drain and queue.empty():
                    break
                time.sleep(poll_interval)
                continue
            status = _run_claimed(store_obj, queue, lease, wid)
            processed += 1
            logger.debug("worker %s: task %d attempt %d -> %s",
                         wid, lease.entry.index, lease.entry.attempt, status)
            if status == "fatal":
                break
            if max_tasks is not None and processed >= max_tasks:
                break
    finally:
        queue.deregister_worker(wid)
    return processed


# -- coordinator -----------------------------------------------------------------


class _TaskState:
    """Coordinator-side observation state for one pending task."""

    __slots__ = (
        "task",
        "task_hash",
        "name",
        "started",
        "record",
        "resolved",
        "lease_first_seen",
        "gone_since",
    )

    def __init__(self, task: SweepTask, hash_hex: str) -> None:
        self.task = task
        self.task_hash = hash_hex
        self.name = QueueEntry(task={}, task_hash=hash_hex, index=task.index).name
        #: Attempt numbers whose ``task_started`` was emitted.
        self.started: Set[int] = set()
        #: This coordinator's copy of the task's attempt record: every
        #: attempt below ``record.attempt`` has been charged, by replaying a
        #: worker's failure record or by reclaiming a lost worker's lease.
        self.record = AttemptRecord()
        self.resolved = False
        #: When the coordinator first observed a lease, per attempt — the
        #: expiry baseline, so a lease claimed before the coordinator looked
        #: is not declared dead on a stale-looking mtime alone.
        self.lease_first_seen: Dict[int, float] = {}
        #: When the entry first went missing with no terminal record (the
        #: narrow crash window between a worker's record write and release).
        self.gone_since: Optional[float] = None


class _CoordinatorRun:
    """One distributed sweep: enqueue, spawn, tail, reclaim, shut down."""

    def __init__(
        self,
        executor: "DistributedSweepExecutor",
        queue: TaskQueue,
        store: ResultStore,
        tasks: List[SweepTask],
        context: ExecutorContext,
    ) -> None:
        self.executor = executor
        self.queue = queue
        self.store = store
        self.context = context
        self.policy = context.retry_policy
        self.poll_interval = executor.poll_interval
        self.states = [
            _TaskState(task, task_hash(task))
            for task in sorted(tasks, key=lambda task: task.index)
        ]
        self.by_name = {state.name: state for state in self.states}
        self.by_index = {state.task.index: state for state in self.states}
        self.out: "deque[TaskOutcome]" = deque()
        self.procs: List[Dict[str, Any]] = []
        self.fatal_error: Optional[BaseException] = None
        # Worker deaths are expected under chaos plans, but a daemon that
        # dies instantly on every start (broken environment) must not be
        # respawned forever: budget generously above any real crash plan.
        self.respawns_left = 2 * len(self.states) + 8

    # -- lifecycle -----------------------------------------------------------------

    def _entry(self, state: _TaskState) -> QueueEntry:
        """The queue entry for the next attempt of *state*'s record."""
        record = state.record
        return QueueEntry(
            task=state.task.to_dict(),
            task_hash=state.task_hash,
            index=state.task.index,
            attempt=record.attempt,
            failures=record.failures,
            crashes=record.crashes,
        )

    def _startup(self) -> None:
        queue = self.queue
        queue.clear_stop()
        queue.clear_fatal()
        for name in queue.failure_records():  # journal left by a dead run
            queue.clear_failure(name)
        queue.write_config(self.executor.worker_config(self.context))
        now = time.time()
        for state in self.states:
            lease_path = queue.leases_dir / state.name
            if lease_path.exists():
                # Leftover lease from a previous coordinator against this
                # store.  Expired by mtime: requeue it fresh.  Still fresh: a
                # surviving worker is on it — adopt the lease and let the
                # ordinary tail/reclaim machinery take it from here.
                entry = queue.read_entry(lease_path)
                try:
                    mtime = lease_path.stat().st_mtime
                except OSError:
                    mtime = 0.0
                if entry is None or now - mtime > queue.lease_timeout:
                    queue.requeue_from_lease(state.name, self._entry(state))
                else:
                    state.record = AttemptRecord(entry.attempt, entry.failures, entry.crashes)
                    state.lease_first_seen[entry.attempt] = now
                continue
            queue.enqueue(self._entry(state))
        self._spawn_workers()

    def _spawn_workers(self) -> None:
        for slot in range(self.executor.spawn_count(len(self.states))):
            worker_id = f"spawn-{os.getpid()}-{slot}"
            self.procs.append(
                {"id": worker_id, "generation": 0, "proc": self._spawn_one(worker_id)}
            )

    def _spawn_one(self, worker_id: str) -> subprocess.Popen:
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "sweep-worker",
            "--store",
            str(self.store.root),
            "--worker-id",
            worker_id,
            "--poll-interval",
            str(self.executor.worker_poll_interval()),
            "--lease-timeout",
            str(self.queue.lease_timeout),
        ]
        env = os.environ.copy()
        import repro

        src_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
        return subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)

    def _respawn_dead(self) -> None:
        if not self.procs or all(state.resolved for state in self.states):
            return
        for slot in self.procs:
            if slot["proc"].poll() is None:
                continue
            if self.respawns_left <= 0:
                continue
            self.respawns_left -= 1
            slot["generation"] += 1
            worker_id = f"{slot['id']}g{slot['generation']}"
            logger.info("respawning dead sweep worker as %s", worker_id)
            slot["proc"] = self._spawn_one(worker_id)
        if self.respawns_left <= 0 and all(
            slot["proc"].poll() is not None for slot in self.procs
        ):
            raise RuntimeError(
                "distributed sweep workers keep dying; aborting after the "
                "respawn budget was exhausted with unresolved tasks remaining"
            )

    def shutdown(self) -> None:
        try:
            self.queue.request_stop()
        except OSError:  # pragma: no cover - disk-full etc.
            pass
        for slot in self.procs:
            proc = slot["proc"]
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                    proc.kill()
                    proc.wait()

    # -- event emission ------------------------------------------------------------

    def _emit_started(self, state: _TaskState, attempt: int) -> None:
        """Emit any not-yet-emitted ``task_started`` through *attempt*."""
        for number in range(1, attempt + 1):
            if number not in state.started:
                state.started.add(number)
                self.context.on_started(state.task, number)

    def _ensure_first_starts(self, index: int) -> None:
        """Emit first-attempt starts for every task up to *index*, in order.

        Claims are taken in index order, so observed activity at *index*
        proves every lower index's first attempt was already claimed —
        emitting their starts now (in order) satisfies contract rule 3
        without a coordinator→worker channel.
        """
        for state in self.states:
            if state.task.index > index:
                return
            if not state.resolved and not state.started:
                self._emit_started(state, 1)

    def _resolve(self, state: _TaskState, outcome: TaskOutcome) -> None:
        state.resolved = True
        self.out.append(outcome)

    # -- queue tailing -------------------------------------------------------------

    def _process_failure_record(self, name: str) -> bool:
        record = self.queue.read_failure(name)
        self.queue.clear_failure(name)
        if record is None:
            return False
        try:
            index = int(record["index"])
            attempt = int(record["attempt"])
        except (KeyError, ValueError, TypeError):
            return False
        state = self.by_index.get(index)
        if state is None or state.resolved or attempt < state.record.attempt:
            return False
        error = dict(record.get("error") or {})
        # The worker already charged its copy of the record and acted on it;
        # charging this one too keeps the two in step.
        state.record.charge(self.policy, state.task, state.task_hash, error)
        self._ensure_first_starts(index)
        self._emit_started(state, attempt)
        will_retry = bool(record.get("will_retry"))
        self.context.on_task_failed(
            state.task, attempt, error, will_retry, float(record.get("delay", 0.0))
        )
        return True

    def _charge_crash(self, state: _TaskState, message: str, worker: str) -> bool:
        """Charge the attempt a lost worker held as one crash; whether it is requeued.

        Reports the crash (``task_failed`` and ``lease_reclaimed``) and, once
        the crash budget is spent, resolves the task as quarantined.
        """
        attempt = state.record.attempt
        payload = crash_payload("WorkerLostError", message, attempt)
        _, failure = state.record.charge(self.policy, state.task, state.task_hash, payload)
        self._ensure_first_starts(state.task.index)
        self._emit_started(state, attempt)
        self.context.on_task_failed(state.task, attempt, payload, failure is None, 0.0)
        self.context.on_lease_reclaimed(state.task, attempt, worker, failure is None)
        if failure is not None:
            outcome = TaskOutcome(state.task, None, 0.0, failure=failure, attempt=attempt)
            self._resolve(state, outcome)
            return False
        return True

    def _reclaim(self, state: _TaskState, entry: QueueEntry) -> None:
        worker = entry.worker or "unknown"
        state.lease_first_seen.pop(entry.attempt, None)
        message = (
            f"worker {worker!r} stopped heartbeating; its lease expired after "
            f"{self.queue.lease_timeout:g}s"
        )
        if self._charge_crash(state, message, worker):
            self.queue.requeue_from_lease(state.name, self._entry(state))
        else:
            self.queue.discard_lease(state.name)

    def _scan_leases(self, lease_names: Iterable[str], now: float) -> bool:
        progressed = False
        for name in sorted(lease_names):
            state = self.by_name.get(name)
            if state is None or state.resolved:
                continue
            path = self.queue.leases_dir / name
            entry = self.queue.read_entry(path)
            if entry is None:
                continue  # vanished or half-transitioned; next poll settles it
            attempt = entry.attempt
            if attempt > state.record.attempt:
                # Contract rule 2: the prior attempt's failure must be
                # reported before this retry's start.  Crash requeues were
                # reported by this coordinator already; worker-side failures
                # sit in the journal — process the specific record directly.
                prior = self.queue.failure_name(state.task.index, attempt - 1)
                progressed = self._process_failure_record(prior) or progressed
            if attempt not in state.started:
                self._ensure_first_starts(state.task.index)
                self._emit_started(state, attempt)
                progressed = True
            if attempt not in state.lease_first_seen:
                state.lease_first_seen[attempt] = now
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            if now > max(mtime, state.lease_first_seen[attempt]) + self.queue.lease_timeout:
                self._reclaim(state, entry)
                progressed = True
        return progressed

    def _scan_resolution(self, pending: Set[str], leases: Set[str], now: float) -> bool:
        progressed = False
        for state in self.states:
            if state.resolved:
                continue
            if state.name in pending or state.name in leases:
                state.gone_since = None
                continue
            stored = self.store.get(state.task_hash)
            if stored is not None:
                attempt = max(state.record.attempt, max(state.started, default=1))
                self._ensure_first_starts(state.task.index)
                self._emit_started(state, attempt)
                self._resolve(
                    state,
                    TaskOutcome(state.task, stored.result, stored.duration, attempt=attempt),
                )
                progressed = True
                continue
            failure = self.store.get_failure(state.task_hash)
            if failure is not None:
                attempt = max(failure.attempts, max(state.started, default=1))
                self._ensure_first_starts(state.task.index)
                self._emit_started(state, attempt)
                self._resolve(
                    state, TaskOutcome(state.task, None, 0.0, failure=failure, attempt=attempt)
                )
                progressed = True
                continue
            # In neither directory and no terminal record: a worker died in
            # the narrow window around its release.  Give the records one
            # lease timeout to surface, then charge a crash and requeue.
            if state.gone_since is None:
                state.gone_since = now
            elif now - state.gone_since > self.queue.lease_timeout:
                state.gone_since = None
                message = "task entry vanished from the queue without a stored result"
                if self._charge_crash(state, message, "unknown"):
                    self.queue.enqueue(self._entry(state))
                progressed = True
        return progressed

    def _poll(self) -> bool:
        fatal = self.queue.read_fatal()
        if fatal is not None and self.fatal_error is None:
            self.fatal_error = fatal_error_from_payload(fatal)
        progressed = False
        # Failure journal first, then one snapshot of both queue directories:
        # a record is always written before its entry moves, so this order
        # never reports a terminal outcome ahead of its attempts' failures.
        for name in self.queue.failure_records():
            progressed = self._process_failure_record(name) or progressed
        now = time.time()
        pending = set(self.queue.pending_names())
        leases = set(self.queue.lease_names())
        progressed = self._scan_leases(leases, now) or progressed
        progressed = self._scan_resolution(pending, leases, now) or progressed
        return progressed

    def outcomes(self) -> Iterator[TaskOutcome]:
        self._startup()
        try:
            while any(not state.resolved for state in self.states):
                progressed = self._poll()
                while self.out:
                    progressed = True
                    yield self.out.popleft()
                if self.fatal_error is not None:
                    raise self.fatal_error
                self._respawn_dead()
                if not progressed:
                    time.sleep(self.poll_interval)
            while self.out:
                yield self.out.popleft()
        finally:
            self.shutdown()


@register_executor("distributed", aliases=("queue",))
class DistributedSweepExecutor(SweepExecutor):
    """Coordinator for the shared-store work-queue backend.

    ``workers`` is the number of *local* ``repro sweep-worker`` daemons the
    coordinator spawns for the run: ``None`` (default) spawns one per CPU
    (capped at :data:`MAX_DEFAULT_SPAWN`), ``0`` spawns none — pure
    coordinator mode, for grids drained entirely by externally started
    workers (other terminals, other hosts on a shared filesystem).
    External workers may join a spawned run too; the store is the only
    rendezvous.

    ``lease_timeout`` is how long a claimed task's heartbeat may go silent
    before the worker is declared dead and the task requeued (charged
    against ``RetryPolicy.crash_requeues``); ``heartbeat_interval`` defaults
    to a quarter of it.  ``poll_interval`` is the coordinator's tail cadence.

    Runs without a ``store=`` get a private temporary store (deleted
    afterwards) — the queue protocol needs a shared directory even when the
    caller does not want to keep the results.
    """

    name = "distributed"

    def __init__(
        self,
        workers: Optional[int] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        heartbeat_interval: Optional[float] = None,
        poll_interval: float = 0.05,
    ) -> None:
        if workers is not None and workers < 0:
            raise ConfigurationError(f"workers must be non-negative, got {workers}")
        if lease_timeout <= 0:
            raise ConfigurationError(f"lease_timeout must be positive, got {lease_timeout}")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        if poll_interval <= 0:
            raise ConfigurationError(f"poll_interval must be positive, got {poll_interval}")
        self.spawn = workers
        self.lease_timeout = float(lease_timeout)
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = float(poll_interval)

    @property
    def workers(self) -> int:
        if self.spawn is None:
            return min(os.cpu_count() or 1, MAX_DEFAULT_SPAWN)
        return max(1, self.spawn)

    def spawn_count(self, total_tasks: int) -> int:
        """Local daemons to spawn for a *total_tasks*-task run."""
        if self.spawn == 0:
            return 0
        return max(1, min(self.workers, total_tasks))

    def worker_poll_interval(self) -> float:
        """Poll cadence handed to spawned daemons."""
        return min(0.2, max(0.02, self.lease_timeout / 20.0))

    def describe(self) -> str:
        if self.spawn == 0:
            return f"{self.name}(external)"
        return f"{self.name}({self.workers})"

    def worker_config(self, context: ExecutorContext) -> Dict[str, Any]:
        """The execution policy published to workers via ``queue/config.json``."""
        return {
            "retry_policy": asdict(context.retry_policy),
            "task_timeout": context.task_timeout,
            "faults": context.faults.to_dict() if context.faults else None,
            "lease_timeout": self.lease_timeout,
            "heartbeat_interval": self.heartbeat_interval or self.lease_timeout / 4.0,
        }

    def run(
        self, tasks: Iterable[SweepTask], context: ExecutorContext
    ) -> Iterator[TaskOutcome]:
        tasks = list(tasks)
        if not tasks:
            return
        temp_root: Optional[str] = None
        store_path = context.store_path
        if store_path is None:
            temp_root = tempfile.mkdtemp(prefix="repro-sweep-distributed-")
            store_path = temp_root
        store = ResultStore(store_path)
        queue = TaskQueue(store.root, lease_timeout=self.lease_timeout)
        run = _CoordinatorRun(self, queue, store, tasks, context)
        try:
            yield from run.outcomes()
        finally:
            if temp_root is not None:
                shutil.rmtree(temp_root, ignore_errors=True)
