"""The peer network: the population ``P`` plus derived models.

:class:`PeerNetwork` owns the peers and their local workloads ``Q(p)`` and
builds the derived models (recall model, weighted recall matrix, cost
model) that the game, the strategies, the protocol and the traffic layer
consume.  Because the paper's whole point is coping with change, the
network also supports peer churn and content/workload updates; any such
change invalidates the cached derived models so that the next access
rebuilds them against the current state.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Dict, List, Optional

from repro.core.costs import CostModel
from repro.core.queries import Query, QueryWorkload
from repro.core.recall import RecallModel
from repro.core.recall_matrix import WeightedRecallMatrix
from repro.core.theta import LinearTheta, ThetaFunction
from repro.errors import ConfigurationError, UnknownPeerError
from repro.peers.configuration import ClusterConfiguration
from repro.peers.peer import Peer

__all__ = ["PeerNetwork"]

PeerId = Hashable


class PeerNetwork:
    """The set of peers ``P`` together with derived cost/recall models."""

    def __init__(self, peers: Optional[Iterable[Peer]] = None) -> None:
        self._peers: Dict[PeerId, Peer] = {}
        self._recall_model: Optional[RecallModel] = None
        self._matrix: Optional[WeightedRecallMatrix] = None
        self._peer_versions: Dict[PeerId, int] = {}
        if peers is not None:
            for peer in peers:
                self.add_peer(peer)

    # -- population management ---------------------------------------------------

    def add_peer(self, peer: Peer) -> None:
        """Add *peer* to the network (a join event)."""
        if peer.peer_id in self._peers:
            raise ConfigurationError(f"duplicate peer id {peer.peer_id!r}")
        self._peers[peer.peer_id] = peer
        self.invalidate()

    def remove_peer(self, peer_id: PeerId) -> Peer:
        """Remove and return the peer with *peer_id* (a leave event)."""
        try:
            peer = self._peers.pop(peer_id)
        except KeyError:
            raise UnknownPeerError(peer_id) from None
        self.invalidate()
        return peer

    def peer(self, peer_id: PeerId) -> Peer:
        """Return the peer with *peer_id*."""
        try:
            return self._peers[peer_id]
        except KeyError:
            raise UnknownPeerError(peer_id) from None

    def peer_ids(self) -> List[PeerId]:
        """All peer ids in deterministic order."""
        return sorted(self._peers, key=repr)

    def peers(self) -> List[Peer]:
        """All peers, ordered by peer id."""
        return [self._peers[peer_id] for peer_id in self.peer_ids()]

    def __contains__(self, peer_id: PeerId) -> bool:
        return peer_id in self._peers

    def __len__(self) -> int:
        return len(self._peers)

    # -- derived models --------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop cached derived models (called after churn or content/workload updates)."""
        self._recall_model = None
        self._matrix = None
        self._peer_versions = {}

    def _versions_changed(self) -> bool:
        return any(
            self._peer_versions.get(peer_id) != peer.version
            for peer_id, peer in self._peers.items()
        ) or len(self._peer_versions) != len(self._peers)

    def recall_model(self) -> RecallModel:
        """The exact recall model over the current population and content."""
        if self._recall_model is None or self._versions_changed():
            self._recall_model = RecallModel(
                {peer_id: peer.index for peer_id, peer in self._peers.items()}
            )
            self._matrix = None
            self._peer_versions = {peer_id: peer.version for peer_id, peer in self._peers.items()}
        return self._recall_model

    def workloads(self) -> Dict[PeerId, QueryWorkload]:
        """Mapping of peer id to its local workload ``Q(p)`` (live references)."""
        return {peer_id: peer.workload for peer_id, peer in self._peers.items()}

    def recall_matrix(self, *, rebuild: bool = False) -> WeightedRecallMatrix:
        """The weighted recall matrix over the current state (cached).

        The population picks its form: dense below
        :attr:`WeightedRecallMatrix.FACTORED_THRESHOLD` peers, factored (no
        |P| x |P| array, what the labels kernel backend works from) at or
        above it.  The cost model, period observation and traffic all read
        this one matrix; it is rebuilt on the first access after a peer's
        ``version`` changes or the population does.
        """
        recall_model = self.recall_model()
        if self._matrix is None or rebuild:
            self._matrix = WeightedRecallMatrix(recall_model, self.workloads(), self.peer_ids())
        return self._matrix

    def cost_model(
        self,
        *,
        theta: Optional[ThetaFunction] = None,
        alpha: float = 1.0,
        use_matrix: bool = True,
    ) -> CostModel:
        """Build a :class:`CostModel` for the current network state.

        With ``use_matrix=True`` (the default) the weighted recall matrix is
        attached, which is what the experiment-scale runs need; passing
        ``False`` yields the exact per-query reference evaluation.
        """
        model = CostModel(
            self.recall_model(),
            self.workloads(),
            theta=theta if theta is not None else LinearTheta(),
            alpha=alpha,
            population_size=len(self._peers),
        )
        if use_matrix:
            model.attach_matrix(self.recall_matrix())
        return model

    # -- configuration helpers ---------------------------------------------------------

    def full_configuration_slots(self) -> ClusterConfiguration:
        """An empty configuration with ``Cmax = |P|`` cluster slots (the paper's setting)."""
        return ClusterConfiguration.with_slots(len(self._peers))

    def singleton_configuration(self) -> ClusterConfiguration:
        """Initial configuration (i): every peer in its own cluster."""
        return ClusterConfiguration.singletons(self.peer_ids())

    def result_count(self, query: Query, peer_id: PeerId) -> int:
        """``result(q, p)`` evaluated directly against a peer's index."""
        return self.peer(peer_id).result_count(query)

    def __repr__(self) -> str:
        return f"PeerNetwork(peers={len(self._peers)})"
