"""Parallel sweep engine with deterministic seed streams and resume.

The paper's numbers are statements about *distributions* of equilibria; this
package is the layer that produces those distributions fast.  A
:class:`~repro.sweep.spec.SweepSpec` declares a grid over scenarios ×
initial configurations × strategies × thetas × dynamics × workloads × seeds
(plus explicit task lists), :func:`~repro.sweep.engine.run_sweep` hands the
tasks to a pluggable :class:`~repro.sweep.executors.SweepExecutor`
(``serial`` / ``process-pool`` / ``distributed``, or any registered
backend), and :class:`~repro.sweep.result.SweepResult` aggregates the
per-task :class:`~repro.session.result.RunResult`\\ s (JSONL persistence,
mean/stddev/CI summaries).

Determinism is the design center: per-task seeds derive from
``numpy.random.SeedSequence.spawn`` as a pure function of the spec, so a
sweep is byte-identical for every executor and worker count::

    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        scenarios=("same-category",),
        strategies=("selfish", "altruistic"),
        scale="quick",
        replications=8,
    )
    result = run_sweep(
        spec,
        executor={"name": "process-pool", "options": {"max_workers": 4}},
        store=".sweep-store",  # content-addressed results: killed sweeps resume
    )
    print(result.summary_table())

With a :class:`~repro.sweep.store.ResultStore` (the ``store=`` argument),
every finished task is persisted under the sha256 of its canonical config —
re-running a spec (or any spec containing the same tasks) skips the stored
subset and executes only what is missing, which is how preempted and
CI-sharded grids grow incrementally.

Progress streams through ``repro.events`` (``task_started`` /
``task_finished`` / ``task_skipped`` / ``task_loaded`` / ``task_failed`` /
``task_retried`` / ``task_quarantined`` / ``sweep_end``); the ``repro
sweep`` CLI subcommand drives all of this from a JSON spec or flags
(``--executor``, ``--store``, ``--resume``, ``--retries``,
``--task-timeout``).

Fault tolerance (:mod:`repro.sweep.faults`): a
:class:`~repro.sweep.faults.RetryPolicy` re-runs failed or timed-out tasks
with deterministic backoff, worker crashes respawn the pool and requeue
only the in-flight tasks, and tasks that exhaust their budget are
quarantined (``SweepResult.failures`` + the store's quarantine tier) so a
sweep completes with partial results instead of aborting.  A
:class:`~repro.sweep.faults.FaultPlan` injects deterministic chaos
(exceptions, hangs, worker kills) for testing all of it.

Scenario reuse has one tier: the per-process memo of
:mod:`repro.sweep.cache`, one built scenario per ``(scenario,
ScenarioConfig)`` key in each worker, shared with the runners that do not
mutate it; mutating runners build their own.

The ``distributed`` backend (:mod:`repro.sweep.distributed`) extends all of
this across processes and hosts: a coordinator enqueues the grid into a
filesystem work queue inside the store (:mod:`repro.sweep.queue`), any
number of ``repro sweep-worker`` daemons claim tasks through atomic lease
files, and dead workers' expired leases are reclaimed onto the crash
budget — results stay byte-identical to a serial run.

Public typing surface: :data:`~repro.sweep.runners.Runner` (the runner
callable protocol) and :class:`~repro.sweep.executors.SweepExecutor` (the
executor base class) are importable from here.  ``execute_task`` is an
execution internal owned by :mod:`repro.sweep.executors`; the long-
deprecated package-level re-export has been removed.
"""

from repro.sweep.cache import (
    clear_scenario_cache,
    scenario_cache_info,
    scenario_data_for,
)
from repro.sweep.distributed import DistributedSweepExecutor, run_worker
from repro.sweep.engine import run_sweep
from repro.sweep.executors import (
    ExecutorContext,
    ProcessPoolSweepExecutor,
    SerialExecutor,
    SweepExecutor,
    resolve_executor,
)
from repro.sweep.faults import FaultPlan, FaultRule, RetryPolicy, TaskFailure
from repro.sweep.queue import Lease, QueueEntry, QueueStatus, TaskQueue
from repro.sweep.result import SweepResult, read_jsonl
from repro.sweep.runners import Runner, resolve_runner
from repro.sweep.spec import DEFAULT_RUNNER, SweepSpec, SweepTask, derive_seeds
from repro.sweep.store import (
    PruneReport,
    ResultStore,
    StoredResult,
    StoreVerification,
    task_hash,
)

__all__ = [
    "SweepSpec",
    "SweepTask",
    "SweepResult",
    "run_sweep",
    "read_jsonl",
    "Runner",
    "resolve_runner",
    "SweepExecutor",
    "ExecutorContext",
    "SerialExecutor",
    "ProcessPoolSweepExecutor",
    "DistributedSweepExecutor",
    "run_worker",
    "TaskQueue",
    "QueueEntry",
    "QueueStatus",
    "Lease",
    "resolve_executor",
    "ResultStore",
    "StoredResult",
    "StoreVerification",
    "PruneReport",
    "task_hash",
    "derive_seeds",
    "DEFAULT_RUNNER",
    "RetryPolicy",
    "FaultPlan",
    "FaultRule",
    "TaskFailure",
    "scenario_data_for",
    "scenario_cache_info",
    "clear_scenario_cache",
]
