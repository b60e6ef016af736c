"""The batched, vectorised query-traffic simulator.

:class:`TrafficSimulator` replays a time-stamped query-event stream against
a clustered overlay and measures what the clustering is actually worth under
load: per-query latency, hops, bandwidth and recall distributions.

Design
------

**One event order, fixed slices.**  Workload generators emit one or more
sorted :class:`~repro.traffic.events.QueryEventStream`\\ s (e.g. a base
arrival process plus a flash-crowd burst).
:func:`~repro.traffic.events.merge_streams` puts them in global time order
(a lone stream is served as is, without a copy), and the simulator serves
the merged events in fixed slices: batch ``k`` is events
``[k * batch_size, (k + 1) * batch_size)``.  Only the report's ``batches``
count and the per-batch ``query_routed`` events depend on the batch size.

**Batched routing.**  Per batch, events are grouped by issuer cluster (for
routers whose targets depend only on the issuer's cluster — both built-ins —
the group table is one row per cluster; third-party routers fall back to one
row per issuer).  Providers are resolved from column slices of the recall
matrix products ``R @ M`` (per-query recall / provider counts / result items
per cluster), so a whole batch reduces to a handful of fancy-indexed numpy
gathers; no per-provider Python loop survives on the hot path.

**Accounting.**  Messages and bytes follow the
:class:`~repro.overlay.messages.MessageBus` convention — one query message
per reached cluster, one result message per provider holding results — with
latency and bandwidth charged through a pluggable
:class:`~repro.traffic.link.LinkModel`.  An event's latency, hops,
bandwidth and recall depend on its (group, query) cell alone, so a run
counts its events per cell with one ``np.bincount`` and evaluates each
metric once per occupied cell, of which there are at most
``min(events, groups x queries)``.  Each distribution is summarised from
those per-cell values and their event counts by
:func:`~repro.analysis.reporting.weighted_distribution_summary`, which
equals :func:`~repro.analysis.reporting.distribution_summary` of the
per-event sample bit for bit; the per-event values, gathered back in event
order, give each mean and the bandwidth total.  The per-(issuer, cluster)
observed recall of the paper's Eq. 6 observation model is an (issuer,
query) event-count matrix, counted the same way and multiplied back
through ``R @ M`` at the end, one cluster column at a time.

**Observation.**  :func:`observe_period` builds the same routing tables for
one observation period ``T`` and returns its
:class:`~repro.peers.statistics.PeriodStatistics` — the input of the
``observed`` strategy mode — as integer arrays equal to what routing each
recorded workload occurrence once would record, without an event stream.
Observation and traffic build no table of their own: the workload table of
:meth:`WorkloadContext.from_network` and ``R`` both come from the recall
matrix the network caches for the cost model
(:meth:`~repro.peers.network.PeerNetwork.recall_matrix`), in its query
order.  So both go stale exactly when the cost model does: when a peer's
``version`` changes, after which the next access rebuilds the matrix.
"""

from __future__ import annotations

import time
from collections.abc import Hashable
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.events import (
    QUERY_ROUTED,
    TRAFFIC_SUMMARY,
    EventHooks,
    QueryRoutedEvent,
    TrafficSummaryEvent,
)
from repro.overlay.messages import MessageBus
from repro.overlay.routing import BroadcastRouter, QueryRouter
from repro.overlay.topology import ClusterTopology, FullMeshTopology
from repro.peers.configuration import ClusterConfiguration
from repro.peers.network import PeerNetwork
from repro.peers.statistics import PeriodStatistics, shares_of
from repro.traffic.events import QueryEventStream, merge_streams
from repro.traffic.link import LinkModel
from repro.traffic.report import TrafficReport, empty_distribution
from repro.traffic.workloads import (
    WorkloadContext,
    WorkloadGenerator,
    build_workload,
)
from repro.analysis.reporting import weighted_distribution_summary

__all__ = ["TrafficSimulator", "observe_period"]

ClusterId = Hashable

#: Default number of events resolved per vectorised routing step.
DEFAULT_BATCH_SIZE = 8192


class _RoutingTables:
    """Per-run routing state: integer result counts, membership and router groups.

    Issuers are grouped — one group per issuer cluster (cluster-invariant
    routers, for an issuer in exactly one cluster) or per issuer
    (fallback) — and ``group_columns[g]`` lists the columns of the
    clusters the router targets for group ``g``.  ``strategies[i]`` is
    peer ``i``'s set of clusters, read once per build for the grouping and
    for observation's crediting; a peer outside *configuration* raises
    :class:`~repro.errors.UnknownPeerError`.  The columns are
    :attr:`cluster_order`: only the clusters some group targets, in slot
    order (a targeted empty slot still costs its query messages), so no
    table carries a column that no query reaches.  ``counts`` is ``R``
    (|Q| x |P| result counts as float64 integers: the network recall
    matrix's read-only
    :meth:`~repro.core.recall_matrix.WeightedRecallMatrix.result_counts`)
    and ``membership`` is ``M`` (|P| x |C| float64 0/1 over
    :attr:`cluster_order`).  *context* must index the same peers and
    queries as that matrix, as :meth:`WorkloadContext.from_network` on the
    current network does.  :func:`observe_period` works on this state
    alone; :meth:`build_serving_tables` adds the per-group tables the
    served batches gather from.
    """

    def __init__(
        self,
        network: PeerNetwork,
        configuration: ClusterConfiguration,
        router: QueryRouter,
        context: WorkloadContext,
    ) -> None:
        matrix = network.recall_matrix()
        peers = context.peers
        if peers != matrix.peer_order or context.queries != matrix.factored().queries:
            raise ConfigurationError(
                "the workload context does not index the network's current peers and "
                "queries; build it with WorkloadContext.from_network after the last change"
            )
        self.counts = matrix.result_counts()
        self.strategies = [configuration.clusters_of(peer_id) for peer_id in peers]

        # Group the issuers: by cluster when the router's targets only depend
        # on the issuer's cluster, by issuer otherwise (and for a
        # multi-cluster member, which shares no cluster key).
        invariant = bool(getattr(router, "cluster_invariant", False))
        group_of = np.empty(len(peers), dtype=np.int64)
        group_targets: List[List[ClusterId]] = []
        key_to_group: Dict[object, int] = {}
        for row, (peer_id, strategy) in enumerate(zip(peers, self.strategies)):
            key: object
            if invariant and len(strategy) == 1:
                key = ("cluster", *strategy)
            else:
                key = ("peer", row)
            group = key_to_group.get(key)
            if group is None:
                group = len(group_targets)
                key_to_group[key] = group
                group_targets.append(list(router.target_clusters(peer_id, configuration)))
            group_of[row] = group
        self.group_of = group_of

        targeted = set().union(*group_targets)
        self.cluster_order = [
            cluster_id for cluster_id in configuration.cluster_ids() if cluster_id in targeted
        ]
        column_of = {cluster_id: column for column, cluster_id in enumerate(self.cluster_order)}
        self.group_columns = [
            np.array([column_of[cluster_id] for cluster_id in targets], dtype=np.int64)
            for targets in group_targets
        ]
        self.membership, _ = configuration.membership_matrix(peers, self.cluster_order)

    def build_serving_tables(self, link: LinkModel, topology: ClusterTopology) -> None:
        """Aggregate each group's ``R @ M`` column slice into per-(group, query) tables.

        Result items and provider counts are integer sums.  A recall is one
        division of the items reached by the query's total results (every
        peer of the context is a provider), so it is correctly rounded
        whatever the number of columns the tables carry.
        """
        counts, membership = self.counts, self.membership
        totals = counts.sum(axis=1)
        # Q x C products: result items and provider count per cluster.
        cluster_items = counts @ membership
        cluster_providers = (counts > 0).astype(np.float64) @ membership
        sizes = membership.sum(axis=0)
        intra_hops = np.array(
            [topology.lookup_hops(int(size)) for size in sizes], dtype=np.float64
        )

        num_groups = len(self.group_columns)
        num_queries = counts.shape[0]
        self.provider_table = np.zeros((num_groups, num_queries))
        self.item_table = np.zeros((num_groups, num_queries))
        self.query_messages = np.zeros(num_groups)
        self.hops = np.zeros(num_groups)
        self.base_latency_ms = np.zeros(num_groups)
        self.target_mask = np.zeros((num_groups, len(self.cluster_order)))
        for group, columns in enumerate(self.group_columns):
            if columns.size == 0:
                continue
            self.provider_table[group] = cluster_providers[:, columns].sum(axis=1)
            self.item_table[group] = cluster_items[:, columns].sum(axis=1)
            self.query_messages[group] = columns.size
            # Reaching cluster c costs one hop to its entry point plus the
            # intra-cluster fan-out; the fan-out happens in parallel across
            # clusters, so latency follows the slowest branch's round trip.
            self.hops[group] = (1.0 + intra_hops[columns]).sum()
            self.base_latency_ms[group] = link.hop_latency_ms * (
                2.0 + float(intra_hops[columns].max())
            )
            self.target_mask[group, columns] = 1.0
        self.recall_table = shares_of(self.item_table, totals[None, :])
        self.cluster_recall = shares_of(cluster_items, totals[:, None])


def _indicator(rows: Any, columns: Any, shape: Tuple[int, int]) -> np.ndarray:
    """A float64 0/1 matrix of *shape* with ones at ``(rows[k], columns[k])``."""
    matrix = np.zeros(shape)
    matrix[rows, columns] = 1.0
    return matrix


def observe_period(
    network: PeerNetwork,
    configuration: ClusterConfiguration,
    *,
    router: Optional[QueryRouter] = None,
    bus: Optional[MessageBus] = None,
) -> PeriodStatistics:
    """Observe one period ``T``: route every recorded workload occurrence once.

    Returns the period's :class:`~repro.peers.statistics.PeriodStatistics`,
    the cid-annotated result counts of Section 3.1, with rows over
    *network*'s peers and columns over *configuration*'s non-empty clusters.
    With ``W[i, q]`` how often peer ``i``'s recorded workload holds query
    ``q``, ``R`` and ``M`` as in :class:`_RoutingTables` and ``T[g, c]`` how
    often the router sends group ``g``'s queries to cluster ``c``:

    * ``received[i, c] = T[g(i), c] * (W @ R @ M)[i, c]``;
    * ``served[p, c]`` sums ``(W_g @ R)[g, p] * (T @ M.T)[g, p]`` over the
      groups ``g`` whose issuers sit in ``c``, ``W_g`` being ``W`` summed
      per group;
    * ``issued[i]`` sums ``W[i]`` and ``own[i]`` sums ``W[i, q] * R[q, i]``.

    The group sums and the crediting of each group's issuer cluster are
    products with 0/1 indicator matrices, and every product runs on float64
    in BLAS.  That is exact: every operand is a non-negative integer, and
    no partial sum exceeds the issued occurrences times the largest
    per-query result total times the longest target list.  Below ``2**53``
    each addition is exact in any order, with or without FMA, so the arrays,
    cast to int64 once, equal those of routing each occurrence one at a
    time, under any router.  Past that bound, which only a huge
    ``issue_query(query, count)`` reaches, the call raises
    :class:`~repro.errors.ConfigurationError`.  So does an issuer in
    several clusters: its served results would have no single requesting
    cluster to be credited to.  When *bus* is given, it gains one
    ``QueryMessage`` per reached cluster and one ``ResultMessage`` per
    provider holding results, per occurrence.
    """
    router = router if router is not None else BroadcastRouter(network)
    context = WorkloadContext.from_network(network, num_events=0)
    peers = context.peers
    tables = _RoutingTables(network, configuration, router, context)
    for peer_id, strategy in zip(peers, tables.strategies):
        if len(strategy) != 1:
            raise ConfigurationError(
                f"peer {peer_id!r} belongs to {len(strategy)} clusters; expected exactly one"
            )
    counts, membership = tables.counts, tables.membership
    issued = context.counts.sum(axis=1)
    occurrences = int(issued.sum())
    largest = int(counts.sum(axis=1).max(initial=0))
    longest = max((columns.size for columns in tables.group_columns), default=0)
    if occurrences * max(largest, 1) * max(longest, 1) >= 2**53:
        raise ConfigurationError(
            "observation counts could reach 2**53, past exact float64 sums: "
            f"{occurrences} issued occurrences, a query with {largest} results "
            f"and a target list of {longest} clusters"
        )
    num_groups, num_columns = len(tables.group_columns), len(tables.cluster_order)
    workload = context.counts.astype(np.float64)
    targets = np.array(
        [np.bincount(columns, minlength=num_columns) for columns in tables.group_columns],
        dtype=np.float64,
    ).reshape(num_groups, num_columns)
    rows = np.arange(len(peers))
    group_workload = _indicator(tables.group_of, rows, (num_groups, len(peers))) @ workload

    if bus is not None:
        holders = (counts > 0).astype(np.float64) @ membership
        bus.add("QueryMessage", int(group_workload.sum(axis=1) @ targets.sum(axis=1)))
        bus.add("ResultMessage", int((group_workload * (targets @ holders.T)).sum()))

    cluster_order = configuration.nonempty_clusters()
    results = (workload @ (counts @ membership)) * targets[tables.group_of]
    # Results land in the non-empty clusters' columns; the appended zero
    # column stands for every non-empty cluster no group targets.
    targeted = {cluster_id: column for column, cluster_id in enumerate(tables.cluster_order)}
    columns = [targeted.get(cluster_id, len(targeted)) for cluster_id in cluster_order]
    received = np.pad(results, ((0, 0), (0, 1)))[:, columns]

    # Every issuer of a group sits in the same cluster, which its row credits.
    column_of = {cluster_id: column for column, cluster_id in enumerate(cluster_order)}
    issuer_columns = [column_of[cluster_id] for (cluster_id,) in tables.strategies]
    crediting = _indicator(tables.group_of, issuer_columns, (num_groups, len(cluster_order)))
    served = ((group_workload @ counts) * (targets @ membership.T)).T @ crediting

    return PeriodStatistics(
        peer_order=peers,
        cluster_order=cluster_order,
        received=received.astype(np.int64),
        served=served.astype(np.int64),
        issued=issued,
        own=(workload * counts.T).sum(axis=1).astype(np.int64),
    )


class TrafficSimulator:
    """Replays query-event streams against a clustered overlay, batched.

    Parameters
    ----------
    network, configuration:
        The overlay to serve traffic against; the configuration is read-only
        during a run (routing tables are built once per :meth:`run_streams`).
    router:
        A :class:`~repro.overlay.routing.QueryRouter` instance; broadcast by
        default.
    link:
        A :class:`~repro.traffic.link.LinkModel`, mapping or ``None``.
    topology:
        The intra-cluster topology charged for fan-out hops (full mesh by
        default, the paper's evaluation setting).
    hooks:
        Event hub receiving ``query_routed`` (per batch) and
        ``traffic_summary`` (once per run).
    batch_size:
        Merged events per ``query_routed`` batch; every report field but
        ``batches`` is independent of it.
    """

    def __init__(
        self,
        network: PeerNetwork,
        configuration: ClusterConfiguration,
        *,
        router: Optional[QueryRouter] = None,
        link: Optional[Union[LinkModel, Dict[str, Any]]] = None,
        topology: Optional[ClusterTopology] = None,
        hooks: Optional[EventHooks] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        histogram_bins: int = 20,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be at least 1, got {batch_size}")
        self.network = network
        self.configuration = configuration
        self.router = router if router is not None else BroadcastRouter(network)
        self.link = LinkModel.from_options(link)
        self.topology = topology if topology is not None else FullMeshTopology()
        self.hooks = hooks if hooks is not None else EventHooks()
        self.batch_size = int(batch_size)
        self.histogram_bins = int(histogram_bins)

    # -- entry points ----------------------------------------------------------------

    def run(
        self,
        *,
        num_events: int = 10_000,
        workload: Union[str, WorkloadGenerator] = "uniform",
        workload_options: Optional[Dict[str, Any]] = None,
        seed: int = 0,
        horizon: float = 1.0,
    ) -> TrafficReport:
        """Generate a workload and replay it (the one-call entry point).

        *workload* is a registered generator name (``uniform`` / ``zipf`` /
        ``flash-crowd`` / ``replay``) or an instance; *seed* makes the run
        reproducible — identical seeds yield byte-identical reports.
        """
        if isinstance(workload, WorkloadGenerator):
            generator = workload
            if workload_options:
                raise ConfigurationError(
                    "workload_options cannot be combined with a generator instance"
                )
        else:
            generator = build_workload(workload, **dict(workload_options or {}))
        context = WorkloadContext.from_network(
            self.network, num_events=num_events, horizon=horizon, seed=seed
        )
        streams = generator.streams(context)
        return self.run_streams(
            streams, context, workload_label=getattr(generator, "name", "custom")
        )

    def run_streams(
        self,
        streams: Sequence[QueryEventStream],
        context: WorkloadContext,
        *,
        workload_label: str = "events",
    ) -> TrafficReport:
        """Replay pre-built *streams* (sharing *context*'s index space)."""
        started = time.perf_counter()
        tables = _RoutingTables(self.network, self.configuration, self.router, context)
        tables.build_serving_tables(self.link, self.topology)
        merged = merge_streams(streams)
        num_events = len(merged)
        num_peers = len(context.peers)
        num_queries = len(context.queries)
        num_cells = len(tables.group_columns) * num_queries
        # Each event's (group, query) cell and (issuer, query) entry, in
        # merged order, filled batch by batch.
        event_cells = np.empty(num_events, dtype=np.int64)
        event_entries = np.empty(num_events, dtype=np.int64)
        batch_starts = range(0, num_events, self.batch_size)
        total_query_messages = 0
        total_result_messages = 0
        total_result_items = 0

        for batch_index, start in enumerate(batch_starts):
            end = min(start + self.batch_size, num_events)
            issuers, queries = merged.issuers[start:end], merged.queries[start:end]
            groups = tables.group_of[issuers]
            cells = event_cells[start:end]
            cells[:] = groups * num_queries + queries
            event_entries[start:end] = issuers * num_queries + queries
            batch_query_messages = int(round(tables.query_messages[groups].sum()))
            batch_result_messages = int(round(tables.provider_table.take(cells).sum()))
            batch_result_items = int(round(tables.item_table.take(cells).sum()))
            total_query_messages += batch_query_messages
            total_result_messages += batch_result_messages
            total_result_items += batch_result_items
            self.hooks.emit(
                QUERY_ROUTED,
                QueryRoutedEvent(
                    batch_index=batch_index,
                    events=end - start,
                    time_start=float(merged.times[start]),
                    time_end=float(merged.times[end - 1]),
                    query_messages=batch_query_messages,
                    result_messages=batch_result_messages,
                    result_items=batch_result_items,
                ),
            )

        # Every value of an event depends on its (group, query) cell alone, so
        # each metric is evaluated once per occupied cell and summarised over
        # the cells weighted by their event counts.
        cell_counts = np.bincount(event_cells, minlength=num_cells)
        occupied = np.flatnonzero(cell_counts)
        weights = cell_counts[occupied]
        cell_groups, cell_queries = np.divmod(occupied, num_queries)
        link = self.link
        items = tables.item_table[cell_groups, cell_queries]
        per_cell = {
            "latency_ms": tables.base_latency_ms[cell_groups] + link.result_latency_ms * items,
            "hops": tables.hops[cell_groups],
            "bandwidth_bytes": (
                link.query_bytes * tables.query_messages[cell_groups]
                + link.result_message_bytes * tables.provider_table[cell_groups, cell_queries]
                + link.result_item_bytes * items
            ),
            "recall": tables.recall_table[cell_groups, cell_queries],
        }
        # Each event's position among the occupied cells gathers the per-event
        # values back in event order: a mean is their pairwise mean, and the
        # bandwidth total their sum.
        slots = (np.cumsum(cell_counts > 0) - 1)[event_cells]

        def summarise(values: np.ndarray):
            if not num_events:
                return empty_distribution()
            return weighted_distribution_summary(
                values, weights, mean=float(values.take(slots).mean()), bins=self.histogram_bins
            )

        event_matrix = np.bincount(
            event_entries, minlength=num_peers * num_queries
        ).reshape(num_peers, num_queries)
        # One product per cluster column: a column's sums do not depend on
        # how many columns the tables carry.
        events = event_matrix.astype(np.float64)
        issuer_recall_sums = np.zeros((num_peers, len(tables.cluster_order)))
        for column, recall in enumerate(np.ascontiguousarray(tables.cluster_recall.T)):
            issuer_recall_sums[:, column] = events @ recall
        issuer_recall_sums *= tables.target_mask[tables.group_of]
        report = TrafficReport(
            events=num_events,
            horizon=context.horizon,
            router=type(self.router).__name__,
            workload=workload_label,
            batches=len(batch_starts),
            **{name: summarise(values) for name, values in per_cell.items()},
            query_messages=total_query_messages,
            result_messages=total_result_messages,
            result_items=total_result_items,
            total_bandwidth_bytes=float(per_cell["bandwidth_bytes"].take(slots).sum()),
            cluster_order=list(tables.cluster_order),
            peer_order=list(context.peers),
            issuer_recall_sums=issuer_recall_sums,
            issuer_event_counts=event_matrix.sum(axis=1),
            wall_seconds=time.perf_counter() - started,
        )
        self.hooks.emit(TRAFFIC_SUMMARY, TrafficSummaryEvent(report=report))
        return report

    def __repr__(self) -> str:
        return (
            f"TrafficSimulator(peers={len(self.network)}, "
            f"router={type(self.router).__name__}, batch_size={self.batch_size})"
        )
