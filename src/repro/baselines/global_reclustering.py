"""Global re-clustering baseline.

The paper's introduction contrasts local maintenance with the obvious
alternative: re-apply the clustering procedure that formed the original
overlay from scratch, using global knowledge of the updated state.  That
alternative is implemented here so the benchmarks can compare the protocol's
quality and communication cost against it.

The clustering itself is a deterministic k-medoids-style procedure over peer
*profiles* (the multiset of attributes of a peer's documents) with Jaccard
similarity — a reasonable stand-in for the topic-segmentation style formation
schemes the paper cites ([1], [8]).  Message accounting assumes every peer
ships its profile to a coordinator and receives its assignment back, which is
exactly the "global knowledge" cost the paper wants to avoid.
"""

from __future__ import annotations

import random
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from repro.errors import ConfigurationError
from repro.overlay.messages import MessageBus
from repro.peers.configuration import ClusterConfiguration
from repro.peers.network import PeerNetwork

__all__ = ["ReclusteringResult", "GlobalReclustering", "jaccard_similarity"]

PeerId = Hashable


def jaccard_similarity(left: FrozenSet[str], right: FrozenSet[str]) -> float:
    """Jaccard similarity of two attribute sets (1 for two empty sets)."""
    if not left and not right:
        return 1.0
    union = left | right
    if not union:
        return 1.0
    return len(left & right) / len(union)


@dataclass
class ReclusteringResult:
    """Outcome of a global re-clustering pass."""

    configuration: ClusterConfiguration
    iterations: int
    messages: int


class GlobalReclustering:
    """Centralised k-medoids-style clustering of peers by content similarity."""

    def __init__(self, *, num_clusters: int, max_iterations: int = 20, seed: int = 0) -> None:
        if num_clusters <= 0:
            raise ConfigurationError(f"num_clusters must be positive, got {num_clusters}")
        self.num_clusters = num_clusters
        self.max_iterations = max_iterations
        self.seed = seed

    # -- profiles -------------------------------------------------------------

    @staticmethod
    def peer_profile(network: PeerNetwork, peer_id: PeerId) -> FrozenSet[str]:
        """The attribute profile of a peer: the union of its documents' attributes."""
        attributes: set = set()
        for document in network.peer(peer_id).documents:
            attributes |= set(document.attributes)
        return frozenset(attributes)

    # -- clustering --------------------------------------------------------------

    def recluster(
        self, network: PeerNetwork, *, bus: Optional[MessageBus] = None
    ) -> ReclusteringResult:
        """Cluster every peer from scratch and return the new configuration."""
        peer_ids = network.peer_ids()
        if not peer_ids:
            raise ConfigurationError("cannot recluster an empty network")
        clusters = min(self.num_clusters, len(peer_ids))
        profiles: Dict[PeerId, FrozenSet[str]] = {
            peer_id: self.peer_profile(network, peer_id) for peer_id in peer_ids
        }

        # Every peer ships its profile to the coordinator ...
        if bus is not None:
            bus.add("QueryMessage", len(peer_ids))

        rng = random.Random(self.seed)
        medoids: List[PeerId] = rng.sample(peer_ids, clusters)
        assignment: Dict[PeerId, int] = {}
        iterations = 0
        for iteration in range(self.max_iterations):
            iterations = iteration + 1
            new_assignment = {
                peer_id: self._closest_medoid(profiles, medoids, peer_id)
                for peer_id in peer_ids
            }
            new_medoids = self._update_medoids(profiles, new_assignment, medoids)
            if new_assignment == assignment and new_medoids == medoids:
                break
            assignment = new_assignment
            medoids = new_medoids

        configuration = ClusterConfiguration.with_slots(len(peer_ids))
        slots = configuration.cluster_ids()
        for peer_id in peer_ids:
            configuration.assign(peer_id, slots[assignment[peer_id]])

        # ... and receives its assignment back.
        if bus is not None:
            bus.add("ResultMessage", len(peer_ids))
        return ReclusteringResult(
            configuration=configuration, iterations=iterations, messages=2 * len(peer_ids)
        )

    def _closest_medoid(
        self,
        profiles: Dict[PeerId, FrozenSet[str]],
        medoids: List[PeerId],
        peer_id: PeerId,
    ) -> int:
        similarities = [
            jaccard_similarity(profiles[peer_id], profiles[medoid]) for medoid in medoids
        ]
        best = max(range(len(medoids)), key=lambda index: (similarities[index], -index))
        return best

    def _update_medoids(
        self,
        profiles: Dict[PeerId, FrozenSet[str]],
        assignment: Dict[PeerId, int],
        medoids: List[PeerId],
    ) -> List[PeerId]:
        new_medoids: List[PeerId] = list(medoids)
        for cluster_index in range(len(medoids)):
            members = sorted(
                (peer_id for peer_id, cluster in assignment.items() if cluster == cluster_index),
                key=repr,
            )
            if not members:
                continue
            best_member = max(
                members,
                key=lambda candidate: (
                    sum(
                        jaccard_similarity(profiles[candidate], profiles[other])
                        for other in members
                    ),
                    repr(candidate),
                ),
            )
            new_medoids[cluster_index] = best_member
        return new_medoids

    def __repr__(self) -> str:
        return f"GlobalReclustering(num_clusters={self.num_clusters})"
