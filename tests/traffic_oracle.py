"""Reference oracle for traffic reports: one value per served event.

:meth:`repro.traffic.simulator.TrafficSimulator.run_streams` evaluates each
metric once per occupied (group, query) cell and summarises the cells
weighted by their event counts; this module is the per-event definition it
must reproduce.  :func:`reference_merge` puts the streams a test generated
in global event order one event at a time, with ``heapq.merge`` (not through
:func:`~repro.traffic.events.merge_streams`).  :func:`per_event_arrays`
rebuilds the run's routing and serving tables and evaluates every event's
latency, hops, bandwidth and recall with the per-event expressions, so that
``distribution_summary`` of each array is the reference report field.  The
(issuer, query) event matrix is counted one event at a time with
``np.add.at``.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.traffic.events import QueryEventStream
from repro.traffic.simulator import _RoutingTables
from repro.traffic.workloads import WorkloadContext


def reference_merge(
    streams: Sequence[QueryEventStream],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(times, issuers, queries)`` of every event of *streams* in global order.

    The order is ``heapq.merge`` of ``(time, stream index, position)`` keys:
    by time, equal times by stream index, then by position in the stream.
    """
    keys = heapq.merge(
        *(
            [(float(time), index, position) for position, time in enumerate(stream.times)]
            for index, stream in enumerate(streams)
        )
    )
    order = [(index, position) for _, index, position in keys]
    times = np.array([streams[i].times[p] for i, p in order], dtype=np.float64)
    issuers = np.array([streams[i].issuers[p] for i, p in order], dtype=np.int64)
    queries = np.array([streams[i].queries[p] for i, p in order], dtype=np.int64)
    return times, issuers, queries


def serving_tables(simulator) -> _RoutingTables:
    """The routing and serving tables *simulator* serves its network from."""
    context = WorkloadContext.from_network(simulator.network, num_events=0)
    tables = _RoutingTables(
        simulator.network, simulator.configuration, simulator.router, context
    )
    tables.build_serving_tables(simulator.link, simulator.topology)
    return tables


def per_event_arrays(
    simulator, issuers: np.ndarray, queries: np.ndarray
) -> Dict[str, np.ndarray]:
    """The metrics and message counts of the events ``(issuers, queries)``, in order.

    Keys are the report's distribution fields (``latency_ms``, ``hops``,
    ``bandwidth_bytes``, ``recall``) and the per-event ``query_messages``,
    ``result_messages`` and ``result_items``.
    """
    tables = serving_tables(simulator)
    link = simulator.link
    groups = tables.group_of[issuers]
    providers = tables.provider_table[groups, queries]
    items = tables.item_table[groups, queries]
    messages = tables.query_messages[groups]
    return {
        "latency_ms": tables.base_latency_ms[groups] + link.result_latency_ms * items,
        "hops": tables.hops[groups],
        "bandwidth_bytes": (
            link.query_bytes * messages
            + link.result_message_bytes * providers
            + link.result_item_bytes * items
        ),
        "recall": tables.recall_table[groups, queries],
        "query_messages": messages,
        "result_messages": providers,
        "result_items": items,
    }


def batch_sums(values: np.ndarray, batch_sizes: Sequence[int]) -> List[float]:
    """``float(chunk.sum())`` of each consecutive batch of *values*."""
    ends = np.cumsum(batch_sizes)[:-1]
    return [float(chunk.sum()) for chunk in np.split(values, ends)]


def event_matrix(simulator, issuers: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The (issuer, query) event counts of the events, one event at a time."""
    context = WorkloadContext.from_network(simulator.network, num_events=0)
    matrix = np.zeros((len(context.peers), len(context.queries)), dtype=np.int64)
    np.add.at(matrix, (issuers, queries), 1)
    return matrix


def issuer_recall_sums(simulator, matrix: np.ndarray) -> np.ndarray:
    """Each issuer's summed recall per targeted cluster, from an event matrix."""
    tables = serving_tables(simulator)
    events = matrix.astype(np.float64)
    sums = np.zeros((matrix.shape[0], len(tables.cluster_order)))
    for column, recall in enumerate(np.ascontiguousarray(tables.cluster_recall.T)):
        sums[:, column] = events @ recall
    return sums * tables.target_mask[tables.group_of]
