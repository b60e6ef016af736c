"""Layer tracing from outside the program.

The tracer wraps the program's public callables where their callers look
them up: a module-level function is replaced in every loaded ``repro``
module that holds it (``execute_round`` as ``repro.protocol.reformulation``
sees it, ``build_scenario`` as ``repro.sweep.cache`` sees it, ...), and a
method is replaced on its class.  Each wrapped call records a span (metric,
start, end, parent) in memory; a span's self time is its duration minus
what its child spans cover, so the per-layer self times and the
unattributed remainder add up to the traced wall time.

A target the program no longer has (a deleted module, class or method) is
listed in :attr:`Tracer.missing` and records nothing; the run still passes.
Forked sweep workers inherit the wrappers but record nothing: the tracer
switches itself off in a child process.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "self_times", "union_length", "install_layer_wrappers"]

#: Callback turning a wrapped call's arguments and result into counts.
ResultHook = Callable[[Counter, Tuple[Any, ...], Any], None]

#: Metric of the calibration points; they are subtracted, never attributed.
HARNESS_SPAN = "harness.calibration"


@dataclass
class Span:
    """One timed call: the metric it is charged to, its interval and parent."""

    metric: str
    start: float
    end: float
    parent: int


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(interval for interval in intervals if interval[1] > interval[0]):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
        ]
        result.append(max(0.0, (span.end - span.start) - union_length(clipped)))
    return result


class Tracer:
    """Wraps callables, records spans and counts, and restores everything on :meth:`close`."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: ``module:qualname`` of every target the program does not offer.
        self.missing: List[str] = []
        self.active = True
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        reference = weakref.ref(self)

        def _disable_in_child() -> None:
            tracer = reference()
            if tracer is not None:
                tracer.active = False

        os.register_at_fork(after_in_child=_disable_in_child)

    # -- spans ---------------------------------------------------------------

    def record(self, metric: str, start: float, end: float) -> None:
        """Record an already finished interval as a child of the open span."""
        if self.active:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(metric, start, end, parent))

    def _wrap(
        self,
        original: Callable[..., Any],
        metric: str,
        calls: Optional[str],
        on_result: Optional[ResultHook],
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack
            spans = tracer.spans
            outermost = all(spans[index].metric != metric for index in stack)
            index = len(spans)
            spans.append(Span(metric, tracer._clock(), 0.0, stack[-1] if stack else -1))
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index].end = tracer._clock()
                stack.pop()
            if calls is not None and outermost:
                tracer.counts[calls] += 1
            if on_result is not None:
                on_result(tracer.counts, args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(
        self,
        target: str,
        metric: str,
        *,
        calls: Optional[str] = None,
        on_result: Optional[ResultHook] = None,
        subclasses: bool = False,
    ) -> bool:
        """Wrap ``module:function`` or ``module:Class.method``; ``False`` if it is gone.

        A method is replaced on its class, and with *subclasses* also on
        every loaded subclass that overrides it.  A function is replaced in
        every loaded ``repro`` module that holds the same object, under any
        name.
        """
        module_name, _, qualname = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(target)
            return False
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name, None)
            if not isinstance(cls, type) or attr not in cls.__dict__:
                self.missing.append(target)
                return False
            classes = [cls]
            if subclasses:
                pending = list(cls.__subclasses__())
                while pending:
                    sub = pending.pop()
                    pending.extend(sub.__subclasses__())
                    if attr in sub.__dict__:
                        classes.append(sub)
            for owner in classes:
                self._set(owner, attr, self._wrap(owner.__dict__[attr], metric, calls, on_result))
            return True
        original = module.__dict__.get(attr)
        if not callable(original):
            self.missing.append(target)
            return False
        wrapper = self._wrap(original, metric, calls, on_result)
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "") or ""
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapper)
        return True

    def close(self) -> None:
        """Restore every wrapped callable and stop recording."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------------

    def self_time_by_metric(self) -> Dict[str, float]:
        """Total self time per metric (the harness metric included)."""
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, self_times(self.spans)):
            totals[span.metric] = totals.get(span.metric, 0.0) + seconds
        return totals


# -- the program's layer boundaries ---------------------------------------------


def _count_round(counts: Counter, args: Tuple[Any, ...], result: Any) -> None:
    counts["protocol.rounds"] += 1
    counts["protocol.requests"] += len(result.requests)
    counts["protocol.granted"] += len(result.granted)


def _count_drifts(counts: Counter, args: Tuple[Any, ...], result: Any) -> None:
    counts["dynamics.drifts"] += len(result)


def _count_observed(counts: Counter, args: Tuple[Any, ...], result: Any) -> None:
    counts["overlay.observed_queries"] += int(result.queries_routed)


def _count_traffic(counts: Counter, args: Tuple[Any, ...], result: Any) -> None:
    counts["traffic.queries"] += int(result.events)
    counts["traffic.batches"] += int(result.batches)
    counts["traffic.messages"] += int(result.query_messages) + int(result.result_messages)


class _NewMatrices:
    """Counts recall matrices never handed out before: a cached one is no build."""

    def __init__(self) -> None:
        self._seen: "weakref.WeakSet[Any]" = weakref.WeakSet()

    def __call__(self, counts: Counter, args: Tuple[Any, ...], result: Any) -> None:
        matrix = getattr(result, "matrix", result)  # a CostModel carries its matrix
        if matrix is not None and matrix not in self._seen:
            self._seen.add(matrix)
            counts["core.recall_builds"] += 1


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public callables of every layer the benchmark reports on."""
    recall_builds = _NewMatrices()
    kernel = "repro.game.kernel:BestResponseKernel."
    targets: List[Tuple[str, str, Dict[str, Any]]] = [
        ("repro.datasets.scenarios:build_scenario", "datasets.build_s", {"calls": "datasets.builds"}),
        ("repro.peers.network:PeerNetwork.recall_matrix", "core.recall_build_s", {"on_result": recall_builds}),
        ("repro.peers.network:PeerNetwork.cost_model", "core.recall_build_s", {"on_result": recall_builds}),
        ("repro.core.recall_matrix:WeightedRecallMatrix.factored", "core.recall_build_s", {}),
        (kernel + "__init__", "game.kernel_build_s", {"calls": "game.kernel_builds"}),
        (kernel + "rebuild", "game.kernel_build_s", {"calls": "game.kernel_builds"}),
        (kernel + "best_response_all", "game.score_s", {"calls": "game.score_calls"}),
        (kernel + "best_deviation", "game.score_s", {"calls": "game.score_calls"}),
        (kernel + "configuration_assigned", "game.move_s", {"calls": "game.move_calls"}),
        (kernel + "configuration_unassigned", "game.move_s", {"calls": "game.move_calls"}),
        (kernel + "social_cost", "game.cost_s", {}),
        (kernel + "workload_cost", "game.cost_s", {}),
        (kernel + "current_costs", "game.cost_s", {}),
        (
            "repro.strategies.base:RelocationStrategy.propose_all",
            "strategies.propose_s",
            {"calls": "strategies.propose_calls", "subclasses": True},
        ),
        ("repro.protocol.rounds:execute_round", "protocol.round_s", {"on_result": _count_round}),
        (
            "repro.overlay.simulator:OverlaySimulator.run_period",
            "overlay.observe_s",
            {"calls": "overlay.observe_calls", "on_result": _count_observed},
        ),
        ("repro.dynamics.schedule:DynamicsSchedule.apply_period", "dynamics.drift_s", {"on_result": _count_drifts}),
        ("repro.traffic.simulator:TrafficSimulator.run", "traffic.serve_s", {"on_result": _count_traffic}),
        ("repro.session.simulation:Simulation.run", "session.self_s", {}),
        ("repro.session.simulation:Simulation.run_maintenance", "session.self_s", {}),
        ("repro.session.simulation:Simulation.run_traffic", "session.self_s", {}),
        ("repro.sweep.engine:run_sweep", "sweep.coord_s", {}),
        ("repro.sweep.store:ResultStore.get", "sweep.store_get_s", {"calls": "sweep.store_gets"}),
        ("repro.sweep.store:task_hash", "sweep.hash_s", {"calls": "sweep.hashes"}),
        (
            "repro.sweep.shm:ScenarioArrayServer.publish_for_tasks",
            "sweep.shm_publish_s",
            {},
        ),
    ]
    for target, metric, options in targets:
        tracer.wrap(target, metric, **options)
