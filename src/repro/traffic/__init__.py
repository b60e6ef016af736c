"""Event-driven query-traffic simulation over the clustered overlay.

This subsystem answers the question the cost model alone cannot: *what does a
given clustering actually deliver under load?*  It replays time-stamped query
events — generated by registered workload models or recorded workloads —
against a cluster configuration, resolving providers through vectorised
recall-matrix products instead of per-peer loops, and reports latency, hops,
bandwidth and recall distributions.

Entry points:

* :class:`TrafficSimulator` — serves the merged events in fixed batches (or
  ``Simulation.run_traffic`` / the ``repro traffic`` CLI for the high-level path).
* :func:`observe_period` — one observation period ``T`` over the same
  routing tables: every recorded workload occurrence routed once, returned
  as the integer arrays of :class:`~repro.peers.statistics.PeriodStatistics`
  the ``observed`` strategy mode decides from.
* :func:`build_workload` / :data:`repro.registry.workload_registry` — the
  arrival-pattern axis (``uniform``, ``zipf``, ``flash-crowd``, ``replay``).
* :class:`LinkModel` — per-hop latency and per-message byte costs.
* :class:`TrafficReport` — distributions, message totals and the observed
  per-(issuer, cluster) recall.
"""

from repro.traffic.events import QueryEventStream, merge_streams
from repro.traffic.link import LinkModel
from repro.traffic.report import TrafficReport
from repro.traffic.simulator import TrafficSimulator, observe_period
from repro.traffic.workloads import (
    FlashCrowdWorkload,
    ReplayWorkload,
    UniformWorkload,
    WorkloadContext,
    WorkloadGenerator,
    ZipfWorkload,
    build_workload,
)

__all__ = [
    "QueryEventStream",
    "merge_streams",
    "LinkModel",
    "TrafficReport",
    "TrafficSimulator",
    "observe_period",
    "WorkloadContext",
    "WorkloadGenerator",
    "UniformWorkload",
    "ZipfWorkload",
    "FlashCrowdWorkload",
    "ReplayWorkload",
    "build_workload",
]
