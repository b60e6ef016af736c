"""Phase one of a protocol round at the cluster representatives.

One peer per cluster acts as the cluster representative for a round.  Every
member reports its gain to the representative of each cluster it belongs
to; the representative keeps the proposal with the highest gain, provided
the gain exceeds the system threshold ε, and advertises it to the other
representatives.  A stay has nothing to advertise, so only the movers
matter: :func:`gather_requests` picks every cluster's best array mover with
one ``np.lexsort``, folds in the movers kept as per-peer proposals, and
builds a :class:`~repro.protocol.requests.RelocationRequest` for the
winners only.  Which member acts as representative does not change the
outcome, so no representative is elected here; the protocol counts the
reports (:meth:`~repro.protocol.reformulation.ReformulationProtocol.run_round`)
and the advertisements (here) on the message bus.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from typing import Dict, List, Optional

import numpy as np

from repro.overlay.messages import MessageBus
from repro.peers.configuration import ClusterConfiguration
from repro.protocol.requests import RelocationRequest
from repro.strategies.base import MoverBatch, RelocationProposal

__all__ = ["gather_requests"]

PeerId = Hashable
ClusterId = Hashable


def _row_winners(
    batch: MoverBatch, gain_threshold: float, best: Dict[ClusterId, RelocationRequest]
) -> None:
    """Each source cluster's best array mover above *gain_threshold*, into *best*.

    One ``np.lexsort`` over (source column, -gain, ``repr`` rank of the
    peer) puts every cluster's best mover first in its group; a group whose
    best gain is not above the threshold has no request.  An array mover
    belongs to exactly one cluster, its source.
    """
    gains = batch.gains
    if not gains.size:
        return
    rows, sources = batch.rows, batch.sources
    order = np.lexsort((batch.repr_rank[rows], -gains, sources))
    grouped = sources[order]
    first = np.ones(order.size, dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=first[1:])
    winners = order[first]
    clusters, peer_order = batch.clusters, batch.peer_order
    for row, source, target, gain in zip(
        rows[winners].tolist(),
        sources[winners].tolist(),
        batch.targets[winners].tolist(),
        gains[winners].tolist(),
    ):
        if gain <= gain_threshold:
            continue
        cluster_id = clusters[source]
        best[cluster_id] = RelocationRequest(
            source_cluster=cluster_id,
            target_cluster=clusters[target],
            peer_id=peer_order[row],
            gain=gain,
        )


def gather_requests(
    configuration: ClusterConfiguration,
    proposals: Mapping[PeerId, RelocationProposal],
    *,
    gain_threshold: float = 0.0,
    bus: Optional[MessageBus] = None,
) -> List[RelocationRequest]:
    """Phase one of a round: every representative selects its cluster's best request.

    *proposals* maps each moving peer to its proposal, as a
    :class:`~repro.strategies.base.MoverBatch` or any plain mapping (read
    as a batch of per-peer entries); stays and peers outside the
    configuration are ignored.  A cluster's request is its member proposal
    with the highest gain above *gain_threshold*, ties going to the smaller
    ``repr`` of the peer id; a peer in several clusters competes in each of
    them.  Returns the advertised requests (at most one per cluster) in
    ``repr`` order of their cluster, and counts on *bus* the advertisement
    of each request to the other non-empty clusters' representatives.
    """
    batch = MoverBatch.of(proposals)
    best: Dict[ClusterId, RelocationRequest] = {}
    _row_winners(batch, gain_threshold, best)
    for peer_id, proposal in batch.proposals.items():
        if not proposal.is_move or proposal.gain <= gain_threshold:
            continue
        if peer_id not in configuration:
            continue
        for cluster_id in configuration.clusters_of(peer_id):
            incumbent = best.get(cluster_id)
            if (
                incumbent is None
                or proposal.gain > incumbent.gain
                or (
                    proposal.gain == incumbent.gain
                    and repr(proposal.peer_id) < repr(incumbent.peer_id)
                )
            ):
                best[cluster_id] = RelocationRequest.from_proposal(proposal)
    requests = [best[cluster_id] for cluster_id in sorted(best, key=repr)]
    if bus is not None:
        bus.add(
            "RelocationRequestMessage",
            len(requests) * (configuration.num_nonempty_clusters() - 1),
        )
    return requests
