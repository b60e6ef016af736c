"""Per-peer observed statistics gathered during a period ``T``.

The relocation strategies of the paper are driven by *observed* quantities,
not by global knowledge:

* Every query result returned to a peer is annotated with the ``cid`` of the
  cluster that provided it.  Over a period ``T`` the peer can therefore track,
  per cluster, how much recall each cluster yields for its workload — this is
  what the **selfish** strategy needs (:class:`ClusterRecallTracker`).
* Symmetrically, a peer can track how many results it *serves* to queries
  coming from each cluster — the **altruistic** strategy's ``contribution``
  measure (:class:`ContributionTracker`).

The trackers are deliberately oblivious to how results were routed;
:func:`~repro.traffic.simulator.observe_period` fills them for one period,
and the strategies read them.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Dict, Optional

from repro.core.queries import Query

__all__ = ["ClusterRecallTracker", "ContributionTracker", "PeerStatistics"]

PeerId = Hashable
ClusterId = Hashable


class ClusterRecallTracker:
    """Tracks, for one peer, the results its queries received from each cluster."""

    def __init__(self) -> None:
        self._results_per_cluster: Dict[ClusterId, int] = {}
        self._results_per_query_cluster: Dict[Query, Dict[ClusterId, int]] = {}
        self._total_results: int = 0
        self._queries_observed: int = 0

    def record(self, query: Query, cluster_id: ClusterId, result_count: int) -> None:
        """Record that *result_count* results for *query* arrived annotated with *cluster_id*."""
        if result_count < 0:
            raise ValueError(f"result_count must be non-negative, got {result_count}")
        self._results_per_cluster[cluster_id] = (
            self._results_per_cluster.get(cluster_id, 0) + result_count
        )
        per_query = self._results_per_query_cluster.setdefault(query, {})
        per_query[cluster_id] = per_query.get(cluster_id, 0) + result_count
        self._total_results += result_count

    def record_query(self, count: int = 1) -> None:
        """Note that *count* queries of the local workload were evaluated during the period."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._queries_observed += count

    def cluster_recall(self, query: Query, cluster_id: ClusterId) -> float:
        """Observed *cluster recall*: fraction of the results of *query* that came from *cluster_id*."""
        per_query = self._results_per_query_cluster.get(query)
        if not per_query:
            return 0.0
        total = sum(per_query.values())
        if total == 0:
            return 0.0
        return per_query.get(cluster_id, 0) / total

    def observed_recall_by_cluster(self) -> Dict[ClusterId, float]:
        """Fraction of all observed results contributed by each cluster."""
        if self._total_results == 0:
            return {}
        return {
            cluster_id: count / self._total_results
            for cluster_id, count in self._results_per_cluster.items()
        }

    def observed_clusters(self) -> Iterable[ClusterId]:
        """Clusters that returned at least one result during the period."""
        return sorted(self._results_per_cluster, key=repr)

    def total_results(self) -> int:
        """Total number of results observed during the period."""
        return self._total_results

    def queries_observed(self) -> int:
        """Number of local queries evaluated during the period."""
        return self._queries_observed

    def reset(self) -> None:
        """Clear the period's observations (called when a new period ``T`` starts)."""
        self._results_per_cluster.clear()
        self._results_per_query_cluster.clear()
        self._total_results = 0
        self._queries_observed = 0

    def __repr__(self) -> str:
        return (
            f"ClusterRecallTracker(clusters={len(self._results_per_cluster)}, "
            f"results={self._total_results})"
        )


class ContributionTracker:
    """Tracks, for one peer, the results it served to queries from each cluster.

    ``contribution(p, c_i)`` (Eq. 6) is the fraction of all results served by
    ``p`` during the period that went to queries issued by members of
    cluster ``c_i``.
    """

    def __init__(self) -> None:
        self._served_per_cluster: Dict[ClusterId, int] = {}
        self._total_served: int = 0

    def record_served(self, requesting_cluster: ClusterId, result_count: int) -> None:
        """Record *result_count* results served to a query issued from *requesting_cluster*."""
        if result_count < 0:
            raise ValueError(f"result_count must be non-negative, got {result_count}")
        self._served_per_cluster[requesting_cluster] = (
            self._served_per_cluster.get(requesting_cluster, 0) + result_count
        )
        self._total_served += result_count

    def contribution(self, cluster_id: ClusterId) -> float:
        """``contribution(p, c_i)``: share of served results that went to *cluster_id*."""
        if self._total_served == 0:
            return 0.0
        return self._served_per_cluster.get(cluster_id, 0) / self._total_served

    def contributions(self) -> Dict[ClusterId, float]:
        """Contribution to every cluster observed during the period."""
        if self._total_served == 0:
            return {}
        return {
            cluster_id: count / self._total_served
            for cluster_id, count in self._served_per_cluster.items()
        }

    def best_cluster(self) -> Optional[ClusterId]:
        """The cluster with the highest contribution (ties broken deterministically)."""
        if not self._served_per_cluster:
            return None
        return max(
            sorted(self._served_per_cluster, key=repr),
            key=lambda cluster_id: self._served_per_cluster[cluster_id],
        )

    def total_served(self) -> int:
        """Total number of results served during the period."""
        return self._total_served

    def reset(self) -> None:
        """Clear the period's observations."""
        self._served_per_cluster.clear()
        self._total_served = 0

    def __repr__(self) -> str:
        return (
            f"ContributionTracker(clusters={len(self._served_per_cluster)}, "
            f"served={self._total_served})"
        )


class PeerStatistics:
    """Bundle of the two per-peer trackers; one period's observations of one peer."""

    def __init__(self) -> None:
        self.recall_tracker = ClusterRecallTracker()
        self.contribution_tracker = ContributionTracker()

    def reset(self) -> None:
        """Start a fresh observation period ``T``."""
        self.recall_tracker.reset()
        self.contribution_tracker.reset()

    def __repr__(self) -> str:
        return f"PeerStatistics({self.recall_tracker!r}, {self.contribution_tracker!r})"
