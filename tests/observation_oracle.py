"""Reference oracle for period observation: one routed query occurrence at a time.

:func:`repro.traffic.simulator.observe_period` observes a whole period in
bulk; this loop is the definition it must reproduce.  Every occurrence of
every peer's recorded workload goes to the router's target clusters, each
member holding results answers with its ``result_count`` annotated with the
cluster's cid, and the issuer's cluster is credited on the provider's side.
Messages follow the bus convention: one ``QueryMessage`` per reached
cluster, one ``ResultMessage`` per answering provider.

The observed strategies' per-peer formulas are kept here over per-peer
dicts, as the reference for the array rows the strategies read:
:func:`observed_costs` (selfish, Section 3.1.1) and
:func:`observed_contributions` (altruistic, Eq. 6).

:func:`workload_table` collects the global ``Q``'s distinct queries (the
union of every peer's, sorted by ``tuple(query.attributes)``) and fills the
|P| x |Q| occurrence table entry by entry: the reference for
:meth:`repro.traffic.workloads.WorkloadContext.from_network`, which reads
the same table off the network's recall matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.overlay.routing import BroadcastRouter


@dataclass
class PeerRecord:
    """One peer's period: results received and served per cluster, occurrences issued."""

    received: Dict[object, int] = field(default_factory=dict)
    served: Dict[object, int] = field(default_factory=dict)
    issued: int = 0


def _add(counts, cluster_id, count):
    counts[cluster_id] = counts.get(cluster_id, 0) + count


def observe_per_occurrence(network, configuration, router=None):
    """``(records, messages)`` of one period, routed occurrence by occurrence."""
    router = router if router is not None else BroadcastRouter(network)
    records = {peer_id: PeerRecord() for peer_id in network.peer_ids()}
    messages = {"QueryMessage": 0, "ResultMessage": 0}
    for issuer in network.peer_ids():
        issuer_cluster = configuration.cluster_of(issuer)
        record = records[issuer]
        for query, occurrences in network.peer(issuer).workload.items():
            for _ in range(occurrences):
                record.issued += 1
                for cluster_id in router.target_clusters(issuer, configuration):
                    messages["QueryMessage"] += 1
                    for provider in configuration.members(cluster_id):
                        count = network.peer(provider).result_count(query)
                        if count == 0:
                            continue
                        messages["ResultMessage"] += 1
                        _add(record.received, cluster_id, count)
                        _add(records[provider].served, issuer_cluster, count)
    return records, {kind: count for kind, count in messages.items() if count}


def workload_table(network):
    """``(peers, queries, counts)``: the global workload's distinct queries and
    how often each peer's recorded workload holds each of them."""
    peers = network.peer_ids()
    workloads = network.workloads()
    distinct = set().union(*(workloads[peer_id].distinct() for peer_id in peers))
    queries = sorted(distinct, key=lambda query: tuple(query.attributes))
    column = {query: index for index, query in enumerate(queries)}
    counts = np.zeros((len(peers), len(queries)), dtype=np.int64)
    for row, peer_id in enumerate(peers):
        for query, count in workloads[peer_id].items():
            counts[row, column[query]] = count
    return peers, queries, counts


def own_results(cost_model, peer_id):
    """The results *peer_id*'s own content holds for its own workload."""
    workload = cost_model.workloads.get(peer_id)
    return sum(
        cost_model.recall_model.result(query, peer_id) * count
        for query, count in ([] if workload is None else workload.items())
    )


def as_arrays(records, network, configuration):
    """``(received, served, issued, own)`` of *records* over the network's peers and
    the configuration's non-empty clusters, as ``PeriodStatistics`` lays them out."""
    peers = network.peer_ids()
    clusters = configuration.nonempty_clusters()
    received = np.array(
        [[records[peer].received.get(cluster, 0) for cluster in clusters] for peer in peers],
        dtype=np.int64,
    ).reshape(len(peers), len(clusters))
    served = np.array(
        [[records[peer].served.get(cluster, 0) for cluster in clusters] for peer in peers],
        dtype=np.int64,
    ).reshape(len(peers), len(clusters))
    issued = np.array([records[peer].issued for peer in peers], dtype=np.int64)
    model = network.cost_model(use_matrix=False)
    own = np.array([own_results(model, peer) for peer in peers], dtype=np.int64)
    return received, served, issued, own


def observed_costs(peer_id, game, record):
    """Selfish observed ``pcost(p, c)`` per non-empty cluster from *record* (Section 3.1.1)."""
    configuration = game.configuration
    cost_model = game.cost_model
    total = sum(record.received.values())
    shares = {} if not total else {c: count / total for c, count in record.received.items()}
    own_share = min(own_results(cost_model, peer_id) / total, 1.0) if total else 0.0
    current_cluster = configuration.cluster_of(peer_id)
    costs = {}
    for cluster_id in configuration.nonempty_clusters():
        members = set(configuration.members(cluster_id))
        members.add(peer_id)
        membership = cost_model.membership_cost([len(members)])
        share = shares.get(cluster_id, 0.0)
        if cluster_id != current_cluster:
            # The peer's own results are annotated with its own cluster;
            # after moving they would still be reachable.
            share = min(share + own_share, 1.0)
        costs[cluster_id] = membership + (1.0 - share)
    return costs


def observed_contributions(configuration, record):
    """Altruistic observed ``contribution(p, c)`` (Eq. 6) per non-empty cluster from *record*."""
    total = sum(record.served.values())
    return {
        cluster_id: record.served.get(cluster_id, 0) / total if total else 0.0
        for cluster_id in configuration.nonempty_clusters()
    }
