"""On-disk content-addressed store for sweep results.

Every :class:`~repro.sweep.spec.SweepTask` has a deterministic identity: the
sha256 of its canonical JSON (:meth:`SweepTask.canonical_key` — resolved
session config, resolved :class:`~repro.datasets.scenarios.ScenarioConfig`,
canonical runner name, options and seed material).  :class:`ResultStore`
keys everything by that hash:

* ``<root>/tasks/<hh>/<hash>.json`` — one finished task each: the canonical
  key, the task's dict form, the :class:`~repro.session.result.RunResult`
  dict and the worker-side duration.  Written atomically (temp file +
  ``os.replace``) by whichever worker finishes the task, so concurrent
  workers, CI shards and repeated runs can all share one store directory —
  equal hashes mean equal work, so last-writer-wins is harmless.
* ``<root>/quarantine/<hh>/<hash>.json`` — tasks the fault-tolerance layer
  (:mod:`repro.sweep.faults`) gave up on: the terminal
  :class:`~repro.sweep.faults.TaskFailure` payload under the task's
  canonical hash.  A later successful :meth:`ResultStore.put` for the same
  hash clears the quarantine record, so resume naturally retries
  quarantined tasks.
* ``<root>/queue/`` — the distributed backend's work queue
  (:mod:`repro.sweep.queue`).

Records are JSON: nothing is unpickled from a directory that other hosts
may write to.  The two-level ``<hh>/`` fan-out (first two hex digits) keeps
directories small on million-task grids.  Corrupt or unreadable entries are
treated as missing — resume then simply re-runs the task — never as errors;
they are logged (``repro.sweep.store``) and :meth:`ResultStore.verify` scans
for and optionally purges them, emitting ``store_corrupt`` events.

This is what makes **sweep resume** work: :func:`~repro.sweep.engine.run_sweep`
with a store skips every task whose hash already has a stored result,
loading it instead, so an interrupted (or deliberately sharded) grid
finishes by re-running only what is missing, with results byte-identical to
one uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.session.result import RunResult
from repro.sweep.faults import TaskFailure
from repro.sweep.spec import SweepTask

__all__ = [
    "ResultStore",
    "StoredResult",
    "StoreVerification",
    "PruneReport",
    "task_hash",
    "canonical_json",
]

logger = logging.getLogger("repro.sweep.store")


def canonical_json(value: Any) -> str:
    """The canonical JSON rendering hashes are computed over.

    Key-sorted, separator-minimal and ASCII-only, so the byte stream — and
    therefore every hash — is identical across processes, platforms and
    Python versions.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _sha256(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def task_hash(task: SweepTask) -> str:
    """The sha256 content hash of *task*'s canonical key (hex, 64 chars)."""
    return _sha256(canonical_json(task.canonical_key()))


@dataclass(frozen=True)
class StoredResult:
    """One task's stored outcome, as loaded back from the store."""

    task_hash: str
    task: Dict[str, Any]
    result: RunResult
    #: Worker-side wall-clock seconds of the run that produced the result.
    duration: float


@dataclass
class StoreVerification:
    """What :meth:`ResultStore.verify` found in one scan."""

    #: Task entries examined.
    checked: int = 0
    #: ``(task hash, reason)`` for every corrupt/unreadable entry.
    corrupt: List[Tuple[str, str]] = field(default_factory=list)
    #: Corrupt entries removed (only with ``purge=True``).
    purged: int = 0

    @property
    def ok(self) -> bool:
        """Whether the scan found no corrupt entries."""
        return not self.corrupt


@dataclass
class PruneReport:
    """What :meth:`ResultStore.prune` removed in one pass."""

    #: Stale queue files removed: superseded pending entries, dead leases,
    #: processed failure records, leftover config/STOP/fatal markers.
    queue_files_removed: int = 0
    #: Worker liveness files whose heartbeat went stale.
    worker_files_removed: int = 0
    #: Half-written atomic-write temp files left by killed processes.
    temp_files_removed: int = 0

    @property
    def removed(self) -> int:
        """Total files removed."""
        return self.queue_files_removed + self.worker_files_removed + self.temp_files_removed


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write *payload* to *path* atomically (visible fully written or not at all)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        mode="wb", dir=path.parent, prefix=f".{path.name}.", delete=False
    )
    try:
        with handle:
            handle.write(payload)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


class ResultStore:
    """A content-addressed store rooted at one directory (created lazily)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    @classmethod
    def from_any(cls, value: Optional[Any]) -> Optional["ResultStore"]:
        """Coerce *value* (None, path string/Path or ResultStore) to a store."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, (str, Path)):
            return cls(value)
        raise ConfigurationError(
            f"expected a store path or ResultStore, got {type(value).__name__}"
        )

    def __repr__(self) -> str:
        return f"ResultStore(root={str(self.root)!r})"

    # -- paths ---------------------------------------------------------------------

    def task_path(self, hash_hex: str) -> Path:
        """Where the result for content hash *hash_hex* lives."""
        return self.root / "tasks" / hash_hex[:2] / f"{hash_hex}.json"

    def failure_path(self, hash_hex: str) -> Path:
        """Where the quarantine record for content hash *hash_hex* lives."""
        return self.root / "quarantine" / hash_hex[:2] / f"{hash_hex}.json"

    # -- task results --------------------------------------------------------------

    def put(self, task: SweepTask, result: RunResult, duration: float) -> str:
        """Persist *task*'s finished *result*; returns the content hash."""
        hash_hex = task_hash(task)
        record = {
            "kind": "sweep-task-result",
            "hash": hash_hex,
            "key": task.canonical_key(),
            "task": task.to_dict(),
            "result": result.to_dict(),
            "duration": duration,
        }
        payload = json.dumps(record, sort_keys=True).encode("utf-8")
        _atomic_write_bytes(self.task_path(hash_hex), payload)
        # A success supersedes any earlier quarantine of the same work.
        self.clear_failure(hash_hex)
        return hash_hex

    def get(self, task_or_hash: Union[SweepTask, str]) -> Optional[StoredResult]:
        """The stored outcome for a task (or bare content hash), or ``None``.

        Unreadable or corrupt entries count as missing: resume re-runs the
        task rather than failing the sweep on a half-written file.
        """
        hash_hex = (
            task_hash(task_or_hash)
            if isinstance(task_or_hash, SweepTask)
            else str(task_or_hash)
        )
        path = self.task_path(hash_hex)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            result = RunResult.from_dict(record["result"])
            return StoredResult(
                task_hash=hash_hex,
                task=dict(record.get("task", {})),
                result=result,
                duration=float(record.get("duration", 0.0)),
            )
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError, ConfigurationError) as error:
            # Present but unreadable: the task will re-run, but leave a trail
            # (and let `verify()` report it) instead of hiding the damage.
            logger.warning(
                "treating corrupt store entry %s as missing (%s: %s)",
                path,
                type(error).__name__,
                error,
            )
            return None

    def __contains__(self, task_or_hash: object) -> bool:
        if isinstance(task_or_hash, SweepTask):
            return self.task_path(task_hash(task_or_hash)).exists()
        return self.task_path(str(task_or_hash)).exists()

    def task_hashes(self) -> Iterator[str]:
        """Every stored task hash (no particular order)."""
        tasks_root = self.root / "tasks"
        if not tasks_root.is_dir():
            return
        for path in sorted(tasks_root.glob("*/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.task_hashes())

    # -- quarantine ----------------------------------------------------------------

    def put_failure(self, task: SweepTask, failure: "TaskFailure") -> str:
        """Record *task*'s terminal *failure* under its content hash."""
        hash_hex = failure.task_hash or task_hash(task)
        record = {
            "kind": "sweep-task-failure",
            "hash": hash_hex,
            "task": task.to_dict(),
            "failure": failure.to_dict(),
        }
        payload = json.dumps(record, sort_keys=True).encode("utf-8")
        _atomic_write_bytes(self.failure_path(hash_hex), payload)
        return hash_hex

    def get_failure(self, task_or_hash: Union[SweepTask, str]) -> Optional[TaskFailure]:
        """The quarantine record for a task (or bare hash), or ``None``."""
        hash_hex = (
            task_hash(task_or_hash)
            if isinstance(task_or_hash, SweepTask)
            else str(task_or_hash)
        )
        try:
            with open(self.failure_path(hash_hex), "r", encoding="utf-8") as handle:
                record = json.load(handle)
            return TaskFailure.from_dict(record["failure"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def clear_failure(self, task_or_hash: Union[SweepTask, str]) -> None:
        """Drop the quarantine record for a task (or bare hash), if any."""
        hash_hex = (
            task_hash(task_or_hash)
            if isinstance(task_or_hash, SweepTask)
            else str(task_or_hash)
        )
        try:
            os.unlink(self.failure_path(hash_hex))
        except OSError:
            pass

    def failure_hashes(self) -> Iterator[str]:
        """Every quarantined task hash (no particular order)."""
        quarantine_root = self.root / "quarantine"
        if not quarantine_root.is_dir():
            return
        for path in sorted(quarantine_root.glob("*/*.json")):
            yield path.stem

    # -- verification --------------------------------------------------------------

    def verify(self, *, purge: bool = False, hooks: Optional[Any] = None) -> StoreVerification:
        """Scan every task entry for corruption; optionally purge the damage.

        An entry is corrupt when its JSON is unreadable, its recorded hash
        disagrees with its filename, or its result payload does not rebuild
        into a :class:`~repro.session.result.RunResult`.  Each corrupt entry
        is logged, reported in the returned :class:`StoreVerification` and —
        when *hooks* (an :class:`~repro.events.EventHooks`) is given —
        emitted as a ``store_corrupt`` event.  With ``purge=True`` corrupt
        files are deleted, so the next resume simply re-runs those tasks.
        """
        from repro.events import STORE_CORRUPT, StoreCorruptEvent

        report = StoreVerification()
        tasks_root = self.root / "tasks"
        if not tasks_root.is_dir():
            return report
        for path in sorted(tasks_root.glob("*/*.json")):
            report.checked += 1
            reason = self._entry_problem(path)
            if reason is None:
                continue
            logger.warning("corrupt store entry %s: %s", path, reason)
            purged = False
            if purge:
                try:
                    os.unlink(path)
                    purged = True
                    report.purged += 1
                except OSError as error:  # pragma: no cover - unlink race
                    logger.warning("could not purge %s: %s", path, error)
            report.corrupt.append((path.stem, reason))
            if hooks is not None:
                hooks.emit(
                    STORE_CORRUPT,
                    StoreCorruptEvent(
                        task_hash=path.stem,
                        path=str(path),
                        reason=reason,
                        purged=purged,
                    ),
                )
        return report

    @staticmethod
    def _entry_problem(path: Path) -> Optional[str]:
        """Why the task entry at *path* is corrupt, or ``None`` if it is sound."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError) as error:
            return f"unreadable JSON ({type(error).__name__}: {error})"
        if not isinstance(record, dict):
            return f"expected a JSON object, found {type(record).__name__}"
        recorded = record.get("hash")
        if recorded != path.stem:
            return f"recorded hash {recorded!r} does not match filename"
        try:
            RunResult.from_dict(record["result"])
        except (ValueError, KeyError, TypeError, ConfigurationError) as error:
            return f"result payload does not rebuild ({type(error).__name__}: {error})"
        return None

    # -- pruning -------------------------------------------------------------------

    def prune(self, *, stale_after: float = 1800.0, now: Optional[float] = None) -> PruneReport:
        """Garbage-collect queue debris; never touches results or quarantine.

        Removes, in one pass:

        * **stale queue debris** left behind by killed workers and
          coordinators: pending entries whose task already has a stored
          result, leases and failure-journal records untouched for longer
          than *stale_after* seconds, and leftover ``config.json`` /
          ``STOP`` / ``fatal.json`` markers older than the same threshold;
        * **stale worker liveness files** (heartbeat older than
          *stale_after*);
        * **half-written atomic-write temp files** (``.`` -prefixed, older
          than *stale_after*) anywhere under the store root.

        Run it while no sweep is using the store: a live coordinator's
        queue state looks exactly like a dead one's until heartbeats are
        older than *stale_after*, which is why everything age-gated
        defaults to a generous 30 minutes.
        """
        from repro.sweep.queue import TaskQueue  # local: queue.py imports this module

        clock = time.time() if now is None else now
        report = PruneReport()

        # Queue debris.  Entry/record filenames start with the task index;
        # the content hash is the second dot-separated component.
        queue = TaskQueue(self.root)
        for name in queue.pending_names():
            parts = name.split(".")
            if len(parts) >= 3 and parts[1] in self:
                if self._prune_unlink(queue.pending_dir / name):
                    report.queue_files_removed += 1
        for directory in (queue.leases_dir, queue.failed_dir):
            for path in sorted(directory.glob("*.json")) if directory.is_dir() else ():
                if self._prune_stale(path, clock, stale_after):
                    report.queue_files_removed += 1
        for path in (queue.config_path, queue.stop_path, queue.fatal_path):
            if self._prune_stale(path, clock, stale_after):
                report.queue_files_removed += 1

        # Worker liveness files whose heartbeat went stale.
        if queue.workers_dir.is_dir():
            for path in sorted(queue.workers_dir.glob("*.json")):
                if self._prune_stale(path, clock, stale_after):
                    report.worker_files_removed += 1

        # Aged atomic-write temp files anywhere under the store.
        if self.root.is_dir():
            for path in sorted(self.root.rglob(".*")):
                if path.is_file() and self._prune_stale(path, clock, stale_after):
                    report.temp_files_removed += 1
        return report

    @staticmethod
    def _prune_unlink(path: Path) -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    @classmethod
    def _prune_stale(cls, path: Path, clock: float, stale_after: float) -> bool:
        """Unlink *path* if it has sat untouched for over *stale_after* seconds."""
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return False
        if clock - mtime <= stale_after:
            return False
        return cls._prune_unlink(path)
