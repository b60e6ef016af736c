"""Reference oracle for period observation: one routed query occurrence at a time.

:func:`repro.traffic.simulator.observe_period` observes a whole period in
bulk; this loop is the definition it must reproduce.  Every occurrence of
every peer's recorded workload goes to the router's target clusters, each
member holding results answers with its ``result_count`` annotated with the
cluster's cid, and the issuer's cluster is credited on the provider's side.
Messages follow the bus convention: one ``QueryMessage`` per reached
cluster, one ``ResultMessage`` per answering provider.
"""

from __future__ import annotations

from repro.overlay.routing import BroadcastRouter
from repro.peers.statistics import PeerStatistics


def observe_per_occurrence(network, configuration, router=None):
    """``(statistics, messages)`` of one period, routed occurrence by occurrence."""
    router = router if router is not None else BroadcastRouter(network)
    statistics = {peer_id: PeerStatistics() for peer_id in network.peer_ids()}
    messages = {"QueryMessage": 0, "ResultMessage": 0}
    for issuer in network.peer_ids():
        issuer_cluster = configuration.cluster_of(issuer)
        tracker = statistics[issuer].recall_tracker
        for query, occurrences in network.peer(issuer).workload.items():
            for _ in range(occurrences):
                tracker.record_query()
                for cluster_id in router.target_clusters(issuer, configuration):
                    messages["QueryMessage"] += 1
                    for provider in configuration.members(cluster_id):
                        count = network.peer(provider).result_count(query)
                        if count == 0:
                            continue
                        messages["ResultMessage"] += 1
                        tracker.record(query, cluster_id, count)
                        statistics[provider].contribution_tracker.record_served(
                            issuer_cluster, count
                        )
    return statistics, {kind: count for kind, count in messages.items() if count}


def tracker_state(statistics):
    """Every tracker dict and total of *statistics*, keyed by peer, for ``==`` checks."""
    return {
        peer_id: (vars(stats.recall_tracker), vars(stats.contribution_tracker))
        for peer_id, stats in statistics.items()
    }
