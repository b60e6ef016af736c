"""Phase one of a protocol round at the cluster representatives.

One peer per cluster acts as the cluster representative for a round.  Every
member reports its gain to the representative of each cluster it belongs
to; the representative keeps the proposal with the highest gain, provided
the gain exceeds the system threshold ε, and advertises it to the other
representatives.  A stay has nothing to advertise, so only the movers
matter: :func:`gather_requests` keeps the best mover per cluster in one
pass over them.  Which member acts as representative does not change the
outcome, so no representative is elected here; the protocol counts the
reports (:meth:`~repro.protocol.reformulation.ReformulationProtocol.run_round`)
and the advertisements (here) on the message bus.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from typing import Dict, List, Optional

from repro.overlay.messages import MessageBus
from repro.peers.configuration import ClusterConfiguration
from repro.protocol.requests import RelocationRequest
from repro.strategies.base import RelocationProposal

__all__ = ["gather_requests"]

PeerId = Hashable
ClusterId = Hashable


def gather_requests(
    configuration: ClusterConfiguration,
    proposals: Mapping[PeerId, RelocationProposal],
    *,
    gain_threshold: float = 0.0,
    bus: Optional[MessageBus] = None,
) -> List[RelocationRequest]:
    """Phase one of a round: every representative selects its cluster's best request.

    *proposals* maps each moving peer to its proposal; stays and peers
    outside the configuration are ignored.  A cluster's request is its
    member proposal with the highest gain above *gain_threshold*, ties going
    to the smaller ``repr`` of the peer id; a peer in several clusters
    competes in each of them.  Returns the advertised requests (at most one
    per cluster) in ``repr`` order of their cluster, and counts on *bus* the
    advertisement of each request to the other non-empty clusters'
    representatives.
    """
    best: Dict[ClusterId, RelocationProposal] = {}
    for peer_id, proposal in proposals.items():
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
                best[cluster_id] = proposal
    requests = [
        RelocationRequest.from_proposal(best[cluster_id]) for cluster_id in sorted(best, key=repr)
    ]
    if bus is not None:
        bus.add(
            "RelocationRequestMessage",
            len(requests) * (configuration.num_nonempty_clusters() - 1),
        )
    return requests
