"""Reference oracle for the gather phase of a protocol round: one message at a time.

:func:`repro.protocol.representative.gather_requests` keeps the best mover
per cluster in one pass over the movers; this loop is the definition it
must reproduce.  Every non-empty cluster elects its smallest member as
representative, every member with a proposal reports its gain to it, the
representative keeps the move with the highest gain above the threshold
(ties to the smaller ``repr`` of the peer id) and advertises it to every
other representative.  Messages are counted one by one.
"""

from __future__ import annotations

from collections import Counter

from repro.protocol.requests import RelocationRequest


def gather_per_message(configuration, proposals, *, gain_threshold=0.0):
    """``(requests, messages)`` of phase one over every peer's proposal."""
    messages = Counter()
    representatives = {
        cluster_id: min(configuration.members(cluster_id), key=repr)
        for cluster_id in configuration.nonempty_clusters()
    }
    requests = []
    for cluster_id in sorted(representatives, key=repr):
        best = None
        for peer_id in sorted(configuration.members(cluster_id), key=repr):
            if peer_id not in proposals:
                continue
            proposal = proposals[peer_id]
            messages["GainReportMessage"] += 1
            if not proposal.is_move or proposal.gain <= gain_threshold:
                continue
            if best is None or proposal.gain > best.gain or (
                proposal.gain == best.gain and repr(proposal.peer_id) < repr(best.peer_id)
            ):
                best = proposal
        if best is None:
            continue
        requests.append(RelocationRequest.from_proposal(best))
        messages["RelocationRequestMessage"] += len(representatives) - 1
    return requests, messages
