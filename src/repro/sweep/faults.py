"""Fault tolerance and deterministic chaos injection for the sweep engine.

The paper's overlay clustering targets environments where peers fail and
leave mid-protocol; this module gives the experiment harness the same
resilience.  Three pieces:

* :class:`RetryPolicy` — how many execution attempts a task gets, how long
  to back off between them (exponential, with jitter drawn from the task's
  spawned :class:`numpy.random.SeedSequence` stream so a rerun backs off
  identically), and how many worker-crash requeues a task survives before it
  is quarantined.  Crash requeues are budgeted separately from failure
  retries: a task that merely happened to be in flight when a sibling worker
  died is not charged a retry for it.
* Worker-side **timeouts** — :func:`task_timeout_guard` arms a
  ``SIGALRM``-based interval timer around one task execution and raises
  :class:`~repro.errors.TaskTimeoutError` when it expires, so a hung task is
  converted into an ordinary retryable failure inside the worker instead of
  wedging the pool.  On platforms without ``SIGALRM`` (or off the main
  thread) the guard is a no-op and timeouts are not enforced.
* :class:`FaultPlan` — a declarative chaos harness.  A plan is a list of
  :class:`FaultRule`\\ s keyed by canonical task hash (or task index) plus
  attempt number, naming one of the registered fault models
  (:data:`FAULT_TASK_EXCEPTION`, :data:`FAULT_TASK_HANG`,
  :data:`FAULT_WORKER_KILL`).  Because the key is
  the task's *content* hash and the attempt counter — never scheduling state
  — an injected plan fires identically under every executor, which is what
  lets the chaos suite assert byte-identical results between a fault-free
  serial run and a pool run under kills, hangs and exceptions.  Plans travel
  to subprocess workers inside the executor context and can also be injected
  from the environment (:data:`ENV_FAULTS`) for CLI/CI runs.

Quarantine: a task that exhausts its retry budget is recorded as a
:class:`TaskFailure` — in ``SweepResult.failures`` and, when a store is
attached, under the task's canonical hash in the store's ``quarantine/``
tier — and the sweep completes with partial results instead of aborting.
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time
import traceback as traceback_module
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    InjectedFaultError,
    RegistryError,
    TaskTimeoutError,
)

__all__ = [
    "RetryPolicy",
    "FaultPlan",
    "FaultRule",
    "TaskFailure",
    "task_timeout_guard",
    "FAULT_TASK_EXCEPTION",
    "FAULT_TASK_HANG",
    "FAULT_WORKER_KILL",
    "FAULT_MODELS",
    "ENV_FAULTS",
]

#: Environment variable holding a JSON fault plan for subprocess workers
#: and CLI/CI runs (``run_sweep(faults=...)`` takes precedence).
ENV_FAULTS = "REPRO_SWEEP_FAULTS"

FAULT_TASK_EXCEPTION = "task-exception"
FAULT_TASK_HANG = "task-hang"
FAULT_WORKER_KILL = "worker-kill"

#: The registered fault models a :class:`FaultRule` may name.
FAULT_MODELS: Tuple[str, ...] = (FAULT_TASK_EXCEPTION, FAULT_TASK_HANG, FAULT_WORKER_KILL)

#: Failure kinds recorded on :class:`TaskFailure` / failure payloads.
KIND_EXCEPTION = "exception"
KIND_TIMEOUT = "timeout"
KIND_CRASH = "crash"

_IN_WORKER = False


def mark_worker_process() -> None:
    """Mark this process as a pool worker (enables real ``worker-kill``)."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker_process() -> bool:
    """Whether this process was marked as a sweep pool worker."""
    return _IN_WORKER


# -- retry policy ----------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How a failed or crashed task is re-attempted before quarantine.

    ``max_attempts`` counts *executions that ran and failed* (exceptions and
    timeouts): a task is quarantined after its ``max_attempts``-th failure.
    ``crash_requeues`` is the separate budget for worker-death requeues — a
    crash increments the task's attempt number (so fault plans keyed on
    attempts stay deterministic) but does not consume a retry.

    Backoff before retry *k* (1-based failed attempt) is
    ``backoff * backoff_multiplier**(k-1)`` capped at ``max_backoff``, with
    multiplicative jitter drawn from child ``k`` of the task's
    :class:`~numpy.random.SeedSequence` (seeded from the canonical task
    hash) — a pure function of ``(task, attempt)``, so reruns sleep the
    exact same amount.  The default ``backoff=0`` never sleeps.
    """

    #: Total failed executions a task may accumulate (1 = no retries).
    max_attempts: int = 1
    #: Base backoff seconds before the first retry (0 disables sleeping).
    backoff: float = 0.0
    backoff_multiplier: float = 2.0
    max_backoff: float = 60.0
    #: Jitter fraction: the delay is scaled by ``1 + jitter * U(-1, 1)``.
    jitter: float = 0.5
    #: Worker-crash requeues a task survives before quarantine.
    crash_requeues: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.backoff < 0:
            raise ConfigurationError(f"backoff must be non-negative, got {self.backoff}")
        if self.backoff_multiplier < 1:
            raise ConfigurationError(
                f"backoff_multiplier must be at least 1, got {self.backoff_multiplier}"
            )
        if not 0 <= self.jitter <= 1:
            raise ConfigurationError(f"jitter must be within [0, 1], got {self.jitter}")
        if self.crash_requeues < 0:
            raise ConfigurationError(
                f"crash_requeues must be non-negative, got {self.crash_requeues}"
            )

    @property
    def retries(self) -> int:
        """Retries after the first attempt (``max_attempts - 1``)."""
        return self.max_attempts - 1

    @classmethod
    def from_any(cls, value: Optional[Any]) -> "RetryPolicy":
        """Coerce *value* to a policy.

        ``None`` is the no-retry default, an integer is a retry count
        (``2`` means up to 3 attempts), a mapping names policy fields
        (``retries`` is accepted as an alias for ``max_attempts - 1``) and a
        :class:`RetryPolicy` passes through.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, bool):
            raise ConfigurationError(f"expected a retry count or policy, got {value!r}")
        if isinstance(value, int):
            if value < 0:
                raise ConfigurationError(f"retries must be non-negative, got {value}")
            return cls(max_attempts=value + 1)
        if isinstance(value, Mapping):
            values = dict(value)
            if "retries" in values:
                if "max_attempts" in values:
                    raise ConfigurationError(
                        "a retry policy takes either 'retries' or 'max_attempts', not both"
                    )
                values["max_attempts"] = int(values.pop("retries")) + 1
            known = {name for name in cls.__dataclass_fields__}
            unknown = sorted(set(values) - known)
            if unknown:
                raise ConfigurationError(
                    f"unknown retry policy keys {unknown}; valid keys: {sorted(known)}"
                )
            return cls(**values)
        raise ConfigurationError(
            f"expected a retry count, mapping or RetryPolicy, got {type(value).__name__}"
        )

    def delay(self, task_hash: str, attempt: int) -> float:
        """Seconds to back off before re-running after failed *attempt*.

        Deterministic in ``(task_hash, attempt)``: the jitter factor comes
        from spawn child ``attempt`` of a :class:`~numpy.random.SeedSequence`
        seeded with the task's content hash.
        """
        if self.backoff <= 0:
            return 0.0
        base = min(self.backoff * self.backoff_multiplier ** (attempt - 1), self.max_backoff)
        if self.jitter <= 0:
            return base
        entropy = int(task_hash[:16], 16) if task_hash else 0
        stream = np.random.SeedSequence(entropy=entropy, spawn_key=(attempt,))
        factor = 1.0 + self.jitter * float(np.random.default_rng(stream).uniform(-1.0, 1.0))
        return max(0.0, base * factor)


# -- task failures ---------------------------------------------------------------


@dataclass(frozen=True)
class TaskFailure:
    """A task that exhausted its retry budget and was quarantined."""

    index: int
    task_hash: str
    #: Attempt number of the terminal failure (total attempts consumed).
    attempts: int
    error_type: str
    message: str
    #: ``"exception"``, ``"timeout"`` or ``"crash"``.
    kind: str = KIND_EXCEPTION
    #: Whether the failure came from an injected :class:`FaultPlan` rule.
    injected: bool = False
    traceback: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable mapping that round-trips through :meth:`from_dict`."""
        return {
            "index": self.index,
            "task_hash": self.task_hash,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
            "kind": self.kind,
            "injected": self.injected,
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "TaskFailure":
        """Rebuild a failure from its :meth:`to_dict` form."""
        return cls(
            index=int(mapping["index"]),
            task_hash=str(mapping.get("task_hash", "")),
            attempts=int(mapping.get("attempts", 1)),
            error_type=str(mapping.get("error_type", "Exception")),
            message=str(mapping.get("message", "")),
            kind=str(mapping.get("kind", KIND_EXCEPTION)),
            injected=bool(mapping.get("injected", False)),
            traceback=str(mapping.get("traceback", "")),
        )


def is_fatal_error(error: BaseException) -> bool:
    """Whether *error* is a deterministic misconfiguration, not a task fault.

    Configuration and registry errors fail identically on every attempt and
    usually on every task — retrying or quarantining them hides a user error,
    so the engine re-raises them and aborts the sweep (the pre-fault-tolerance
    behaviour).  Injected faults are never fatal: chaos plans must exercise
    the retry path.
    """
    if isinstance(error, InjectedFaultError):
        return False
    return isinstance(error, (ConfigurationError, RegistryError))


def fatal_error_from_payload(payload: Mapping[str, Any]) -> ConfigurationError:
    """Rebuild a coordinator-side exception from a fatal wire payload.

    The concrete class does not cross the pool; re-raise everything as
    :class:`~repro.errors.ConfigurationError` (the common ancestor callers
    catch), keeping the original type name in the message.
    """
    error_type = str(payload.get("type", "ConfigurationError"))
    message = str(payload.get("message", ""))
    if error_type == "ConfigurationError":
        return ConfigurationError(message)
    return ConfigurationError(f"{error_type}: {message}")


def failure_payload(error: BaseException, attempt: int) -> Dict[str, Any]:
    """The wire form of one failed execution attempt (crosses the pool)."""
    return {
        "type": type(error).__name__,
        "message": str(error),
        "kind": KIND_TIMEOUT if isinstance(error, TaskTimeoutError) else KIND_EXCEPTION,
        "injected": isinstance(error, (InjectedFaultError, TaskTimeoutError))
        and getattr(error, "injected", isinstance(error, InjectedFaultError)),
        "fatal": is_fatal_error(error),
        "attempt": attempt,
        "traceback": "".join(
            traceback_module.format_exception(type(error), error, error.__traceback__)
        ),
    }


def crash_payload(error: BaseException, attempt: int) -> Dict[str, Any]:
    """The failure payload for a worker-death (``BrokenProcessPool``) event."""
    return {
        "type": type(error).__name__,
        "message": str(error) or "a sweep worker process died",
        "kind": KIND_CRASH,
        "injected": False,
        "attempt": attempt,
        "traceback": "",
    }


def failure_from_payload(task: Any, task_hash: str, payload: Mapping[str, Any]) -> TaskFailure:
    """A terminal :class:`TaskFailure` from one attempt's wire payload."""
    return TaskFailure(
        index=task.index,
        task_hash=task_hash,
        attempts=int(payload.get("attempt", 1)),
        error_type=str(payload.get("type", "Exception")),
        message=str(payload.get("message", "")),
        kind=str(payload.get("kind", KIND_EXCEPTION)),
        injected=bool(payload.get("injected", False)),
        traceback=str(payload.get("traceback", "")),
    )


# -- worker-side timeout ---------------------------------------------------------


def timeout_enforcement_available() -> bool:
    """Whether per-task timeouts can be enforced in this process.

    Requires ``SIGALRM`` (POSIX) and the main thread — ``signal.setitimer``
    is per-process and handlers only fire on the main thread.
    """
    return hasattr(signal, "SIGALRM") and threading.current_thread() is threading.main_thread()


@contextmanager
def task_timeout_guard(seconds: Optional[float]) -> Iterator[bool]:
    """Raise :class:`TaskTimeoutError` if the body runs longer than *seconds*.

    Yields whether enforcement is actually armed; with ``seconds`` unset,
    non-positive, or on platforms/threads without ``SIGALRM``, the guard is
    a no-op (best effort by design — results never depend on it).
    """
    if seconds is None or seconds <= 0 or not timeout_enforcement_available():
        yield False
        return

    def _expired(signum: int, frame: Any) -> None:
        raise TaskTimeoutError(seconds)

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# -- fault plans -----------------------------------------------------------------


def _is_int(value: Any) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _finite_non_negative(value: Any) -> bool:
    return (
        isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value) and value >= 0
    )


#: The one option each fault model reads: ``(key, what it expects, check)``.
_FAULT_OPTIONS = {
    FAULT_TASK_EXCEPTION: ("message", "a string", lambda value: isinstance(value, str)),
    FAULT_TASK_HANG: ("seconds", "a finite number >= 0", _finite_non_negative),
    FAULT_WORKER_KILL: ("exit_code", "an int", _is_int),
}


def _invalid_rule(name: str, value: Any, expected: str) -> ConfigurationError:
    return ConfigurationError(f"fault rule {name}={value!r}: expected {expected}")


@dataclass(frozen=True)
class FaultRule:
    """One chaos rule: *which* fault fires for *which* task attempts.

    A rule matches a task by canonical content hash (full hash or prefix,
    ``task_hash``) and/or expansion index (``index``); with neither set it
    matches every task.  ``attempts`` restricts the attempt numbers the
    fault fires on (empty = every attempt).  ``options`` parameterise the
    fault model (``seconds`` for ``task-hang``, ``exit_code`` for
    ``worker-kill``, ``message`` for ``task-exception``).  Every field is
    checked when the rule is built: a value of the wrong type or range, or
    an option the model does not read, raises
    :class:`~repro.errors.ConfigurationError` naming the field.
    """

    fault: str
    task_hash: Optional[str] = None
    index: Optional[int] = None
    attempts: Tuple[int, ...] = (1,)
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.fault not in FAULT_MODELS:
            raise ConfigurationError(
                f"unknown fault model {self.fault!r}; known: {', '.join(FAULT_MODELS)}"
            )
        if self.task_hash is not None and not isinstance(self.task_hash, str):
            raise _invalid_rule("task_hash", self.task_hash, "a string")
        if self.index is not None and not (_is_int(self.index) and self.index >= 0):
            raise _invalid_rule("index", self.index, "an int >= 0")
        if not isinstance(self.attempts, (list, tuple)) or not all(
            _is_int(attempt) and attempt >= 1 for attempt in self.attempts
        ):
            raise _invalid_rule("attempts", self.attempts, "a list of ints >= 1")
        object.__setattr__(self, "attempts", tuple(int(a) for a in self.attempts))
        if not isinstance(self.options, Mapping):
            raise _invalid_rule("options", self.options, "a mapping")
        key, expected, valid = _FAULT_OPTIONS[self.fault]
        unknown = sorted(set(self.options) - {key}, key=repr)
        if unknown:
            raise ConfigurationError(
                f"fault rule options {unknown} do not apply to {self.fault!r}; "
                f"valid keys: [{key!r}]"
            )
        if key in self.options and not valid(self.options[key]):
            raise _invalid_rule(f"options.{key}", self.options[key], expected)
        object.__setattr__(self, "options", dict(self.options))

    def matches(self, task_hash: str, index: int, attempt: int) -> bool:
        """Whether this rule fires for ``(task, attempt)``."""
        if self.task_hash is not None and not task_hash.startswith(self.task_hash):
            return False
        if self.index is not None and self.index != index:
            return False
        return not self.attempts or attempt in self.attempts

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable mapping that round-trips through :meth:`from_dict`."""
        record: Dict[str, Any] = {"fault": self.fault, "attempts": list(self.attempts)}
        if self.task_hash is not None:
            record["task_hash"] = self.task_hash
        if self.index is not None:
            record["index"] = self.index
        if self.options:
            record["options"] = dict(self.options)
        return record

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "FaultRule":
        """Build a rule from a plain mapping (JSON/env use)."""
        known = {"fault", "task_hash", "index", "attempts", "options"}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown fault rule keys {unknown}; valid keys: {sorted(known)}"
            )
        if "fault" not in mapping:
            raise ConfigurationError("a fault rule needs a 'fault' key")
        attempts = mapping.get("attempts", (1,))
        return cls(
            fault=str(mapping["fault"]),
            task_hash=mapping.get("task_hash"),
            index=mapping.get("index"),
            attempts=() if attempts is None else attempts,
            options=mapping.get("options") or {},
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic chaos schedule: fault rules keyed by task + attempt.

    The plan is consulted inside :func:`~repro.sweep.executors.execute_task`
    at the start of every attempt; the first matching rule fires.  Plans are
    plain data (JSON round-trip, picklable) so one plan reaches the serial
    path, every pool worker and subprocesses launched from the CLI/CI
    (:data:`ENV_FAULTS`) unchanged.
    """

    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def __bool__(self) -> bool:
        return bool(self.rules)

    def match(self, task_hash: str, index: int, attempt: int) -> Optional[FaultRule]:
        """The first rule firing for ``(task, attempt)``, or ``None``."""
        for rule in self.rules:
            if rule.matches(task_hash, index, attempt):
                return rule
        return None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable mapping that round-trips through :meth:`from_any`."""
        return {"rules": [rule.to_dict() for rule in self.rules]}

    def with_rules(self, *rules: FaultRule) -> "FaultPlan":
        """A copy of this plan with *rules* appended."""
        return replace(self, rules=self.rules + tuple(rules))

    @classmethod
    def from_any(cls, value: Optional[Any]) -> Optional["FaultPlan"]:
        """Coerce *value* (None, plan, rule sequence or mapping) to a plan."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, FaultRule):
            return cls(rules=(value,))
        if isinstance(value, Mapping):
            extra = sorted(set(value) - {"rules"})
            if extra:
                raise ConfigurationError(
                    f"unknown fault plan keys {extra}; valid keys: ['rules']"
                )
            value = value.get("rules") or ()
        if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
            rules = tuple(
                entry if isinstance(entry, FaultRule) else FaultRule.from_dict(entry)
                for entry in value
            )
            return cls(rules=rules)
        raise ConfigurationError(
            f"expected a fault plan, rule list or mapping, got {type(value).__name__}"
        )

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan injected through :data:`ENV_FAULTS`, or ``None``."""
        raw = os.environ.get(ENV_FAULTS, "").strip()
        if not raw:
            return None
        import json

        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"{ENV_FAULTS} must hold a JSON fault plan, got {raw!r} ({error})"
            ) from None
        return cls.from_any(payload)


def trigger_fault(rule: FaultRule) -> None:
    """Fire *rule* in the current (worker or coordinator) process.

    * ``task-exception`` raises :class:`InjectedFaultError`;
    * ``task-hang`` sleeps ``options["seconds"]`` (default 3600) — with a
      task timeout armed the alarm converts the hang into a
      :class:`TaskTimeoutError`; if the sleep somehow completes, an
      :class:`InjectedFaultError` is raised so the hang stays observable;
    * ``worker-kill`` calls ``os._exit`` in a pool worker (the real crash
      path: no cleanup, no exception propagation); outside a worker it
      degrades to an injected exception so a serial chaos run is not
      killed — results are identical either way, only the failure kind
      differs.
    """
    if rule.fault == FAULT_TASK_EXCEPTION:
        raise InjectedFaultError(str(rule.options.get("message", "injected task fault")))
    if rule.fault == FAULT_TASK_HANG:
        time.sleep(float(rule.options.get("seconds", 3600.0)))
        raise InjectedFaultError("injected task hang ran to completion without a timeout")
    if rule.fault == FAULT_WORKER_KILL:
        if in_worker_process():
            os._exit(int(rule.options.get("exit_code", 13)))
        raise InjectedFaultError(
            "injected worker-kill (degraded to a task exception outside a pool worker)"
        )
    raise ConfigurationError(f"unknown fault model {rule.fault!r}")  # pragma: no cover
