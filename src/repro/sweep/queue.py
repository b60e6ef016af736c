"""The filesystem work queue behind the distributed sweep backend.

A :class:`TaskQueue` lives inside a result store directory (``<root>/queue/``)
and coordinates any number of worker processes — same host or many hosts
sharing the directory — with nothing but atomic filesystem operations:

* ``pending/<index>.<hash>.json`` — one :class:`QueueEntry` per runnable
  task attempt: the task's dict form, its canonical content hash, the
  attempt number and the failure/crash counters carried across re-enqueues.
  Entries are written atomically (temp file + ``os.replace``) and named with
  a zero-padded task index so lexicographic directory order *is* task-index
  order — workers claim the lowest pending index first, which is what lets
  the coordinator infer first-attempt start order from observations alone.
* ``leases/<index>.<hash>.json`` — a claimed entry.  Claiming **is**
  ``os.replace(pending/name, leases/name)``: rename is atomic on POSIX, so
  exactly one worker wins a contended claim (the losers see
  ``FileNotFoundError`` and move on) and an entry is always in exactly one
  of the two directories.  The lease file's *mtime* is the worker's
  heartbeat — renewed by ``os.utime`` while the task runs — and a lease
  whose mtime goes stale for longer than the coordinator's ``lease_timeout``
  is considered dead and reclaimed (requeued on the crash budget).
* ``failed/<index>.<attempt>.json`` — one record per failed execution
  attempt, written by the failing worker *before* it re-enqueues or
  quarantines, so the coordinator can emit ``task_failed``/``task_retried``
  events in contract order.
* ``workers/<worker_id>.json`` — one liveness file per worker daemon,
  mtime-touched alongside lease renewals; ``repro sweep --status`` counts
  fresh ones as live.
* ``config.json`` — the coordinator-written execution policy (retry policy,
  task timeout, fault plan, lease timings) every worker reads
  per claim, so external daemons run tasks under exactly the sweep's
  resilience settings.
* ``STOP`` — a marker file; workers exit their poll loop when it appears.
* ``fatal.json`` — a deterministic-misconfiguration payload; the
  coordinator re-raises it and aborts the sweep (matching the serial path).

Everything here is plain JSON + rename/utime/unlink, so the queue needs no
server, no locks and no network — a shared directory is the whole fabric.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.sweep.store import ResultStore, _atomic_write_bytes

__all__ = [
    "TaskQueue",
    "QueueEntry",
    "Lease",
    "QueueStatus",
    "WorkerStatus",
    "DEFAULT_LEASE_TIMEOUT",
]

logger = logging.getLogger("repro.sweep.queue")

#: Seconds a lease's heartbeat may go stale before it is considered dead.
DEFAULT_LEASE_TIMEOUT = 30.0


@dataclass
class QueueEntry:
    """One runnable task attempt as it travels through the queue."""

    #: The task's :meth:`~repro.sweep.spec.SweepTask.to_dict` form.
    task: Dict[str, Any]
    #: The task's canonical content hash (:func:`~repro.sweep.store.task_hash`).
    task_hash: str
    #: The task's expansion index (also encoded in the entry filename).
    index: int
    #: Attempt number this entry will execute as (1 on first enqueue).
    attempt: int = 1
    #: Failed executions accumulated so far (drives ``max_attempts``).
    failures: int = 0
    #: Crash requeues accumulated so far (drives ``crash_requeues``).
    crashes: int = 0
    #: Epoch seconds before which the entry must not be claimed (backoff).
    not_before: float = 0.0
    #: Claiming worker's id, recorded on the lease copy of the entry.
    worker: Optional[str] = None

    @property
    def name(self) -> str:
        """The entry's filename, identical in ``pending/`` and ``leases/``."""
        return f"{self.index:08d}.{self.task_hash}.json"

    def to_dict(self) -> Dict[str, Any]:
        """A JSON mapping that round-trips through :meth:`from_dict`."""
        record: Dict[str, Any] = {
            "task": dict(self.task),
            "hash": self.task_hash,
            "index": self.index,
            "attempt": self.attempt,
            "failures": self.failures,
            "crashes": self.crashes,
        }
        if self.not_before:
            record["not_before"] = self.not_before
        if self.worker is not None:
            record["worker"] = self.worker
        return record

    @classmethod
    def from_dict(cls, mapping: Dict[str, Any]) -> "QueueEntry":
        """Rebuild an entry from its :meth:`to_dict` form."""
        return cls(
            task=dict(mapping["task"]),
            task_hash=str(mapping["hash"]),
            index=int(mapping["index"]),
            attempt=int(mapping.get("attempt", 1)),
            failures=int(mapping.get("failures", 0)),
            crashes=int(mapping.get("crashes", 0)),
            not_before=float(mapping.get("not_before", 0.0)),
            worker=mapping.get("worker"),
        )


class Lease:
    """A claimed queue entry: the claim's file handle plus renewal/release.

    The lease file's mtime is the liveness signal — :meth:`renew` touches it
    and reports whether the lease is still held (a coordinator that declared
    this worker dead removes or requeues the file, after which renewal
    fails and the worker should abandon its bookkeeping for the task).
    """

    def __init__(self, queue: "TaskQueue", path: Path, entry: QueueEntry) -> None:
        self.queue = queue
        self.path = path
        self.entry = entry
        self.lost = False

    def renew(self) -> bool:
        """Touch the lease heartbeat; ``False`` once the lease was taken away."""
        if self.lost:
            return False
        try:
            os.utime(self.path)
            return True
        except OSError:
            self.lost = True
            return False

    def release(self) -> None:
        """Drop the lease file (the claimed entry leaves the queue)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass


@dataclass(frozen=True)
class WorkerStatus:
    """One registered worker daemon, as seen by ``--status``."""

    worker_id: str
    #: Seconds since the worker's last heartbeat touch.
    age: float
    #: Whether the heartbeat is fresh (within the liveness window).
    live: bool


@dataclass
class QueueStatus:
    """A point-in-time snapshot of a store's queue and worker population."""

    pending: int = 0
    claimed: int = 0
    #: Claimed entries whose lease heartbeat has gone stale.
    expired: int = 0
    #: Unprocessed per-attempt failure records.
    failure_records: int = 0
    #: Finished results in the store's ``tasks/`` tier.
    stored: int = 0
    #: Quarantined tasks in the store's ``quarantine/`` tier.
    quarantined: int = 0
    workers: List[WorkerStatus] = field(default_factory=list)
    stop_requested: bool = False

    @property
    def live_workers(self) -> int:
        """Workers with a fresh heartbeat."""
        return sum(1 for worker in self.workers if worker.live)


def default_worker_id() -> str:
    """A host-unique worker id (``<hostname>-<pid>``)."""
    return f"{socket.gethostname()}-{os.getpid()}"


class TaskQueue:
    """The ``queue/`` tier of one result store directory (created lazily)."""

    def __init__(
        self,
        store_root: Union[str, Path],
        *,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    ) -> None:
        self.store_root = Path(store_root)
        self.root = self.store_root / "queue"
        self.lease_timeout = float(lease_timeout)

    @classmethod
    def for_store(cls, store: ResultStore, **kwargs: Any) -> "TaskQueue":
        """The queue living inside *store*'s root directory."""
        return cls(store.root, **kwargs)

    def __repr__(self) -> str:
        return f"TaskQueue(root={str(self.root)!r})"

    # -- layout --------------------------------------------------------------------

    @property
    def pending_dir(self) -> Path:
        return self.root / "pending"

    @property
    def leases_dir(self) -> Path:
        return self.root / "leases"

    @property
    def failed_dir(self) -> Path:
        return self.root / "failed"

    @property
    def workers_dir(self) -> Path:
        return self.root / "workers"

    @property
    def config_path(self) -> Path:
        return self.root / "config.json"

    @property
    def stop_path(self) -> Path:
        return self.root / "STOP"

    @property
    def fatal_path(self) -> Path:
        return self.root / "fatal.json"

    @staticmethod
    def _names(directory: Path) -> List[str]:
        """Sorted visible entry filenames of *directory* (missing = empty)."""
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        return sorted(name for name in names if name.endswith(".json"))

    @staticmethod
    def _read_json(path: Path) -> Optional[Dict[str, Any]]:
        """The JSON mapping at *path*, or ``None`` if unreadable/missing."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        return record if isinstance(record, dict) else None

    @staticmethod
    def _write_json(path: Path, record: Dict[str, Any]) -> None:
        _atomic_write_bytes(path, json.dumps(record, sort_keys=True).encode("utf-8"))

    @staticmethod
    def _unlink(path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- pending entries and claims ------------------------------------------------

    def enqueue(self, entry: QueueEntry) -> Path:
        """Publish *entry* as claimable work; returns its pending path."""
        path = self.pending_dir / entry.name
        self._write_json(path, entry.to_dict())
        return path

    def pending_names(self) -> List[str]:
        """Sorted (= task-index-ordered) pending entry filenames."""
        return self._names(self.pending_dir)

    def lease_names(self) -> List[str]:
        """Sorted claimed entry filenames."""
        return self._names(self.leases_dir)

    def read_entry(self, path: Path) -> Optional[QueueEntry]:
        """The :class:`QueueEntry` at *path*, or ``None`` if unreadable."""
        record = self._read_json(path)
        if record is None:
            return None
        try:
            return QueueEntry.from_dict(record)
        except (KeyError, ValueError, TypeError):
            logger.warning("skipping malformed queue entry %s", path)
            return None

    def claim(self, worker_id: str, *, now: Optional[float] = None) -> Optional[Lease]:
        """Atomically claim the lowest-index claimable pending entry.

        The claim is the ``os.replace`` of the entry from ``pending/`` into
        ``leases/`` — atomic, so under contention exactly one worker wins
        and the rest silently try the next entry.  Entries whose backoff
        window (``not_before``) has not elapsed are skipped.  Returns the
        :class:`Lease` (its file freshly stamped with the worker id and a
        current heartbeat), or ``None`` when nothing is claimable.
        """
        clock = time.time() if now is None else now
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        for name in self.pending_names():
            pending_path = self.pending_dir / name
            entry = self.read_entry(pending_path)
            if entry is None:
                continue
            if entry.not_before > clock:
                continue
            lease_path = self.leases_dir / name
            try:
                os.replace(pending_path, lease_path)
            except FileNotFoundError:
                continue  # another worker won this entry; try the next one
            entry.worker = worker_id
            entry.not_before = 0.0
            self._write_json(lease_path, entry.to_dict())
            return Lease(self, lease_path, entry)
        return None

    def requeue_from_lease(self, name: str, entry: QueueEntry) -> None:
        """Put *entry* back into ``pending/`` and drop the lease called *name*.

        The coordinator's reclaim path: the fresh pending entry is written
        first, then the dead lease is unlinked, so the task is never
        invisible to other workers in between.
        """
        entry.worker = None
        self.enqueue(entry)
        self._unlink(self.leases_dir / name)

    def discard_lease(self, name: str) -> None:
        """Drop the lease called *name* without requeueing (quarantine path)."""
        self._unlink(self.leases_dir / name)

    def empty(self) -> bool:
        """Whether no entry is pending or claimed."""
        return not self.pending_names() and not self.lease_names()

    # -- failure records -----------------------------------------------------------

    @staticmethod
    def failure_name(index: int, attempt: int) -> str:
        return f"{index:08d}.{attempt:03d}.json"

    def record_failure(
        self,
        entry: QueueEntry,
        payload: Dict[str, Any],
        *,
        will_retry: bool,
        delay: float,
    ) -> None:
        """Journal one failed execution attempt for the coordinator to emit."""
        record = {
            "index": entry.index,
            "hash": entry.task_hash,
            "attempt": entry.attempt,
            "will_retry": will_retry,
            "delay": delay,
            "error": dict(payload),
        }
        self._write_json(self.failed_dir / self.failure_name(entry.index, entry.attempt), record)

    def failure_records(self) -> List[str]:
        """Sorted unprocessed failure-record filenames."""
        return self._names(self.failed_dir)

    def read_failure(self, name: str) -> Optional[Dict[str, Any]]:
        """The failure record called *name*, or ``None`` if unreadable."""
        return self._read_json(self.failed_dir / name)

    def clear_failure(self, name: str) -> None:
        """Drop the (processed) failure record called *name*."""
        self._unlink(self.failed_dir / name)

    # -- execution config ----------------------------------------------------------

    def write_config(self, config: Dict[str, Any]) -> None:
        """Publish the coordinator's execution policy for workers to read."""
        self._write_json(self.config_path, config)

    def read_config(self) -> Dict[str, Any]:
        """The published execution policy (empty when none was written)."""
        return self._read_json(self.config_path) or {}

    # -- stop marker and fatal records ---------------------------------------------

    def request_stop(self) -> None:
        """Ask every polling worker to exit after its current task."""
        _atomic_write_bytes(self.stop_path, b"")

    def clear_stop(self) -> None:
        self._unlink(self.stop_path)

    def stop_requested(self) -> bool:
        return self.stop_path.exists()

    def record_fatal(self, payload: Dict[str, Any]) -> None:
        """Journal a deterministic misconfiguration; the coordinator re-raises it."""
        self._write_json(self.fatal_path, dict(payload))

    def read_fatal(self) -> Optional[Dict[str, Any]]:
        return self._read_json(self.fatal_path)

    def clear_fatal(self) -> None:
        self._unlink(self.fatal_path)

    # -- worker registry -----------------------------------------------------------

    def register_worker(self, worker_id: str) -> None:
        """Create (or refresh) the liveness file for *worker_id*."""
        record = {"worker_id": worker_id, "pid": os.getpid(), "host": socket.gethostname()}
        self._write_json(self.workers_dir / f"{worker_id}.json", record)

    def heartbeat_worker(self, worker_id: str) -> None:
        """Touch *worker_id*'s liveness file (recreating it if needed)."""
        path = self.workers_dir / f"{worker_id}.json"
        try:
            os.utime(path)
        except OSError:
            self.register_worker(worker_id)

    def deregister_worker(self, worker_id: str) -> None:
        self._unlink(self.workers_dir / f"{worker_id}.json")

    def worker_statuses(self, *, now: Optional[float] = None) -> Iterator[WorkerStatus]:
        """Every registered worker with its heartbeat age and liveness."""
        clock = time.time() if now is None else now
        window = max(self.lease_timeout, 1.0)
        for name in self._names(self.workers_dir):
            path = self.workers_dir / name
            try:
                age = max(0.0, clock - path.stat().st_mtime)
            except OSError:
                continue
            yield WorkerStatus(worker_id=name[: -len(".json")], age=age, live=age <= window)

    # -- status --------------------------------------------------------------------

    def status(self, store: Optional[ResultStore] = None) -> QueueStatus:
        """A snapshot of queue depth, lease health, store counts and workers.

        Read-only: nothing is claimed, reclaimed or touched.  *store*
        defaults to the result store this queue lives in.
        """
        store = store if store is not None else ResultStore(self.store_root)
        now = time.time()
        status = QueueStatus(
            pending=len(self.pending_names()),
            failure_records=len(self.failure_records()),
            stored=len(store),
            quarantined=sum(1 for _ in store.failure_hashes()),
            workers=list(self.worker_statuses(now=now)),
            stop_requested=self.stop_requested(),
        )
        for name in self.lease_names():
            try:
                mtime = (self.leases_dir / name).stat().st_mtime
            except OSError:
                continue
            status.claimed += 1
            if now - mtime > self.lease_timeout:
                status.expired += 1
        return status
