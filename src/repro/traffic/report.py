"""The :class:`TrafficReport`: what a traffic run measured.

A report condenses a full event replay into four per-query distributions
(latency, hops, bandwidth, recall — p50/p95/p99 plus histograms, each equal
to :func:`repro.analysis.reporting.distribution_summary` of the per-event
sample), message/byte totals
that follow the :class:`~repro.overlay.messages.MessageBus` conventions, and
the per-(issuer, cluster) observed recall the paper's Eq. 6 observation
model aggregates.  Everything except the observation matrices is
JSON-safe through :meth:`TrafficReport.to_dict`.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.analysis.reporting import DistributionSummary, format_table

__all__ = ["TrafficReport", "empty_distribution"]

PeerId = Hashable
ClusterId = Hashable


def empty_distribution() -> DistributionSummary:
    """The all-zero summary of a run that served no events."""
    return DistributionSummary(
        count=0,
        mean=0.0,
        minimum=0.0,
        maximum=0.0,
        p50=0.0,
        p95=0.0,
        p99=0.0,
        bin_edges=(),
        bin_counts=(),
    )


@dataclass
class TrafficReport:
    """Aggregated outcome of one traffic run."""

    #: Query events served.
    events: int
    #: Simulated horizon length, in seconds.
    horizon: float
    #: Router class/registered name the run used.
    router: str
    #: Workload generator label the run replayed.
    workload: str
    #: Fixed ``batch_size`` slices of the merged events served (the last may be short).
    batches: int
    latency_ms: DistributionSummary = field(default_factory=empty_distribution)
    hops: DistributionSummary = field(default_factory=empty_distribution)
    bandwidth_bytes: DistributionSummary = field(default_factory=empty_distribution)
    recall: DistributionSummary = field(default_factory=empty_distribution)
    #: Query messages sent (one per reached cluster per event).
    query_messages: int = 0
    #: Result messages returned (one per providing peer per event).
    result_messages: int = 0
    #: Result items carried by those messages.
    result_items: int = 0
    total_bandwidth_bytes: float = 0.0
    #: Column order of the observation matrices: the clusters the router
    #: targets for some issuer, in slot order (untargeted slots get none).
    cluster_order: List[ClusterId] = field(default_factory=list)
    #: Row order of the observation matrices.
    peer_order: List[PeerId] = field(default_factory=list)
    #: ``(|P|, |C|)`` summed per-event recall each issuer observed per cluster.
    issuer_recall_sums: Optional[np.ndarray] = None
    #: Events issued per peer (observation denominator).
    issuer_event_counts: Optional[np.ndarray] = None
    #: Coordinator wall-clock seconds for the replay (informational; not serialised).
    wall_seconds: float = 0.0

    # -- derived metrics -----------------------------------------------------------

    @property
    def qps(self) -> float:
        """Served events per simulated second (deterministic, unlike wall time)."""
        if self.horizon <= 0:
            return 0.0
        return self.events / self.horizon

    @property
    def message_counts(self) -> Dict[str, int]:
        """Message totals keyed like a :class:`MessageBus` snapshot."""
        return {
            "QueryMessage": self.query_messages,
            "ResultMessage": self.result_messages,
        }

    def observed_cluster_recall(self, issuer: PeerId) -> Dict[ClusterId, float]:
        """Mean per-event recall *issuer* observed from every cluster.

        This is the traffic-side counterpart of the exact
        ``covered_weight``: with a broadcast router and a ``replay`` workload
        the two agree to floating-point accuracy (see the parity tests).
        Targeted clusters the issuer's queries never reached score 0; a
        cluster no issuer targets is not in :attr:`cluster_order`.
        """
        if self.issuer_recall_sums is None or self.issuer_event_counts is None:
            raise ValueError("this report was built without observation matrices")
        row = self.peer_order.index(issuer)
        issued = float(self.issuer_event_counts[row])
        if issued == 0:
            return {cluster_id: 0.0 for cluster_id in self.cluster_order}
        sums = self.issuer_recall_sums[row]
        return {
            cluster_id: float(sums[column]) / issued
            for column, cluster_id in enumerate(self.cluster_order)
        }

    def flat_metrics(self) -> Dict[str, Any]:
        """Flat JSON-safe scalars for ``RunResult.extras`` (= sweep metrics).

        Keys like ``latency_p50`` / ``bandwidth_p99`` / ``recall_mean`` are
        directly usable as ``repro sweep`` metrics because
        ``SweepResult._metric_value`` reads runner extras first.
        """
        metrics: Dict[str, Any] = {
            "traffic_events": self.events,
            "qps": self.qps,
            "query_messages": self.query_messages,
            "result_messages": self.result_messages,
            "result_items": self.result_items,
            "bandwidth_total_bytes": self.total_bandwidth_bytes,
        }
        for prefix, summary in (
            ("latency", self.latency_ms),
            ("hops", self.hops),
            ("bandwidth", self.bandwidth_bytes),
            ("recall", self.recall),
        ):
            metrics[f"{prefix}_mean"] = summary.mean
            metrics[f"{prefix}_p50"] = summary.p50
            metrics[f"{prefix}_p95"] = summary.p95
            metrics[f"{prefix}_p99"] = summary.p99
        return metrics

    # -- rendering / serialisation ---------------------------------------------------

    def summary_table(self) -> str:
        """Plain-text distribution table (one row per metric)."""
        headers = ("metric", "n", "mean", "p50", "p95", "p99", "max")
        rows = [
            ("latency_ms",) + tuple(self.latency_ms.as_row()),
            ("hops",) + tuple(self.hops.as_row()),
            ("bandwidth_bytes",) + tuple(self.bandwidth_bytes.as_row()),
            ("recall",) + tuple(self.recall.as_row()),
        ]
        return format_table(headers, rows)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable summary (observation matrices reduced to means)."""
        payload: Dict[str, Any] = {
            "events": self.events,
            "horizon": self.horizon,
            "router": self.router,
            "workload": self.workload,
            "batches": self.batches,
            "qps": self.qps,
            "latency_ms": self.latency_ms.to_dict(),
            "hops": self.hops.to_dict(),
            "bandwidth_bytes": self.bandwidth_bytes.to_dict(),
            "recall": self.recall.to_dict(),
            "query_messages": self.query_messages,
            "result_messages": self.result_messages,
            "result_items": self.result_items,
            "total_bandwidth_bytes": self.total_bandwidth_bytes,
            "message_counts": self.message_counts,
        }
        if self.issuer_recall_sums is not None and self.issuer_event_counts is not None:
            issued = self.issuer_event_counts.astype(float)
            total = float(issued.sum())
            if total > 0:
                per_cluster = self.issuer_recall_sums.sum(axis=0) / total
                payload["mean_cluster_recall"] = {
                    str(cluster_id): float(value)
                    for cluster_id, value in zip(self.cluster_order, per_cluster)
                    if value > 0
                }
        return payload

    def __repr__(self) -> str:
        return (
            f"TrafficReport(events={self.events}, router={self.router!r}, "
            f"workload={self.workload!r}, recall_mean={self.recall.mean:.3f}, "
            f"latency_p95={self.latency_ms.p95:.2f}ms)"
        )
