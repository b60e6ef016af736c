"""Cluster configurations: the strategy profile ``S`` of the game.

A configuration records which peers belong to which clusters.  It is the
object the cost model evaluates (it implements the read-only interface
documented in :mod:`repro.core.costs`) and the object the reformulation
protocol mutates when it grants relocation requests.

The paper allows a peer to join several clusters (its strategy is a *set* of
clusters) but focuses on single-cluster membership for the protocol and the
experiments; the configuration supports both.  The maximum number of clusters
``Cmax`` equals the number of peers, so the configuration always exposes
``Cmax`` cluster slots — unassigned slots are simply empty clusters, which is
exactly what the cluster-creation rule of Section 3.2 needs.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, insort
from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError, UnknownClusterError, UnknownPeerError
from repro.peers.cluster import Cluster

__all__ = ["ClusterConfiguration"]

PeerId = Hashable
ClusterId = Hashable


class ClusterConfiguration:
    """Mutable mapping between peers and clusters (the strategy profile ``S``).

    Parameters
    ----------
    cluster_ids:
        The identifiers of all cluster slots in the system (``Cmax`` slots,
        possibly empty).
    assignment:
        Optional initial assignment: mapping from peer id to one cluster id
        or an iterable of cluster ids.
    """

    def __init__(
        self,
        cluster_ids: Iterable[ClusterId],
        assignment: Optional[Mapping[PeerId, object]] = None,
    ) -> None:
        self._clusters: Dict[ClusterId, Cluster] = {}
        for cluster_id in cluster_ids:
            if cluster_id in self._clusters:
                raise ConfigurationError(f"duplicate cluster id {cluster_id!r}")
            self._clusters[cluster_id] = Cluster(cluster_id)
        self._strategies: Dict[PeerId, Set[ClusterId]] = {}
        #: ``repr``-ordered peer ids, kept until a peer arrives or departs.
        self._sorted_peer_ids: Optional[List[PeerId]] = None
        self._listeners: List["weakref.ref"] = []
        self._index_slots()
        if assignment is not None:
            for peer_id, clusters in assignment.items():
                if isinstance(clusters, (str, bytes)) or not isinstance(clusters, Iterable):
                    clusters = [clusters]
                for cluster_id in clusters:
                    self.assign(peer_id, cluster_id)

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def singletons(cls, peer_ids: Sequence[PeerId]) -> "ClusterConfiguration":
        """Initial configuration (i) of the paper: every peer forms its own cluster."""
        cluster_ids = [f"c{index}" for index in range(len(peer_ids))]
        configuration = cls(cluster_ids)
        for index, peer_id in enumerate(peer_ids):
            configuration.assign(peer_id, cluster_ids[index])
        return configuration

    @classmethod
    def with_slots(cls, slot_count: int) -> "ClusterConfiguration":
        """An empty configuration with *slot_count* cluster slots named ``c0..c{n-1}``."""
        if slot_count <= 0:
            raise ConfigurationError("a configuration needs at least one cluster slot")
        return cls([f"c{index}" for index in range(slot_count)])

    def copy(self) -> "ClusterConfiguration":
        """Deep copy of the configuration (clusters and strategies)."""
        duplicate = ClusterConfiguration(self._clusters.keys())
        for peer_id, clusters in self._strategies.items():
            for cluster_id in clusters:
                duplicate.assign(peer_id, cluster_id)
        return duplicate

    # -- mutation listeners -------------------------------------------------------

    def add_listener(self, listener: object) -> None:
        """Register *listener* for membership-change callbacks (held weakly).

        A listener may implement any of ``configuration_assigned(peer_id,
        cluster_id)``, ``configuration_unassigned(peer_id, cluster_id)`` and
        ``configuration_cluster_added(cluster_id)``; missing methods are
        skipped.  Listeners are stored through weak references so a discarded
        listener (e.g. a per-round game's kernel) never outlives its owner.
        Dead references are pruned here and on every mutation notification,
        so churning kernels against a long-lived configuration keeps the
        listener list bounded by the number of *live* listeners.
        """
        if any(reference() is None for reference in self._listeners):
            self._listeners = [
                reference for reference in self._listeners if reference() is not None
            ]
        self._listeners.append(weakref.ref(listener))

    def remove_listener(self, listener: object) -> None:
        """Unregister *listener* (no-op when it was never registered)."""
        self._listeners = [
            reference for reference in self._listeners if reference() not in (None, listener)
        ]

    def _index_slots(self) -> None:
        """Rebuild the ``repr``-ordered slot list and its non-empty/empty split."""
        self._sorted_cluster_ids: List[ClusterId] = sorted(self._clusters, key=repr)
        self._slot_rank: Dict[ClusterId, int] = {
            cluster_id: rank for rank, cluster_id in enumerate(self._sorted_cluster_ids)
        }
        self._nonempty: List[ClusterId] = []
        self._empty: List[ClusterId] = []
        for cluster_id in self._sorted_cluster_ids:
            if self._clusters[cluster_id].is_empty:
                self._empty.append(cluster_id)
            else:
                self._nonempty.append(cluster_id)

    def _slot_turned(self, cluster_id: ClusterId, *, nonempty: bool) -> None:
        """Move *cluster_id* to the other side of the split, keeping ``repr`` order."""
        if nonempty:
            source, target = self._empty, self._nonempty
        else:
            source, target = self._nonempty, self._empty
        rank = self._slot_rank.__getitem__
        del source[bisect_left(source, rank(cluster_id), key=rank)]
        insort(target, cluster_id, key=rank)

    def _notify(self, method: str, *args: object) -> None:
        if not self._listeners:
            return
        alive = []
        for reference in self._listeners:
            listener = reference()
            if listener is None:
                continue
            callback = getattr(listener, method, None)
            if callback is not None:
                callback(*args)
            alive.append(reference)
        if len(alive) != len(self._listeners):
            self._listeners = alive

    # -- cluster management -------------------------------------------------------

    def add_cluster(self, cluster_id: ClusterId) -> None:
        """Add a new (empty) cluster slot."""
        if cluster_id in self._clusters:
            raise ConfigurationError(f"cluster {cluster_id!r} already exists")
        self._clusters[cluster_id] = Cluster(cluster_id)
        self._index_slots()
        self._notify("configuration_cluster_added", cluster_id)

    def cluster(self, cluster_id: ClusterId) -> Cluster:
        """Return the :class:`Cluster` object for *cluster_id*."""
        try:
            return self._clusters[cluster_id]
        except KeyError:
            raise UnknownClusterError(cluster_id) from None

    def cluster_ids(self) -> List[ClusterId]:
        """All cluster slot identifiers (including empty slots), in ``repr`` order."""
        return list(self._sorted_cluster_ids)

    def nonempty_clusters(self) -> List[ClusterId]:
        """Identifiers of clusters with at least one member, in ``repr`` order."""
        return list(self._nonempty)

    def empty_clusters(self) -> List[ClusterId]:
        """Identifiers of empty cluster slots (candidates for cluster creation), ``repr`` order."""
        return list(self._empty)

    def size(self, cluster_id: ClusterId) -> int:
        """``|c|`` for the given cluster."""
        return self.cluster(cluster_id).size

    def sizes(self) -> Dict[ClusterId, int]:
        """Mapping of every non-empty cluster id to its size."""
        return {cluster_id: self._clusters[cluster_id].size for cluster_id in self.nonempty_clusters()}

    def members(self, cluster_id: ClusterId) -> FrozenSet[PeerId]:
        """The member peer ids of *cluster_id*."""
        return self.cluster(cluster_id).members

    # -- peer management --------------------------------------------------------------

    def peer_ids(self) -> List[PeerId]:
        """All assigned peer ids, in ``repr`` order (a fresh list)."""
        if self._sorted_peer_ids is None:
            self._sorted_peer_ids = sorted(self._strategies, key=repr)
        return list(self._sorted_peer_ids)

    def num_peers(self) -> int:
        """Number of assigned peers (cheap — no sort)."""
        return len(self._strategies)

    def num_memberships(self) -> int:
        """Number of (peer, cluster) memberships (:meth:`num_peers` without multi-membership)."""
        return sum(map(len, self._strategies.values()))

    def assign(self, peer_id: PeerId, cluster_id: ClusterId) -> None:
        """Add *cluster_id* to the strategy of *peer_id*."""
        cluster = self.cluster(cluster_id)
        strategy = self._strategies.get(peer_id)
        if strategy is None:
            strategy = self._strategies[peer_id] = set()
            self._sorted_peer_ids = None
        if cluster_id in strategy:
            raise ConfigurationError(
                f"peer {peer_id!r} already belongs to cluster {cluster_id!r}"
            )
        strategy.add(cluster_id)
        if cluster.is_empty:
            self._slot_turned(cluster_id, nonempty=True)
        cluster.add(peer_id)
        self._notify("configuration_assigned", peer_id, cluster_id)

    def remove_peer(self, peer_id: PeerId) -> None:
        """Remove *peer_id* from every cluster (peer departure)."""
        strategy = self._strategies.pop(peer_id, None)
        if strategy is None:
            raise UnknownPeerError(peer_id)
        self._sorted_peer_ids = None
        for cluster_id in sorted(strategy, key=repr):
            cluster = self._clusters[cluster_id]
            cluster.remove(peer_id)
            if cluster.is_empty:
                self._slot_turned(cluster_id, nonempty=False)
            self._notify("configuration_unassigned", peer_id, cluster_id)

    def move(self, peer_id: PeerId, from_cluster: ClusterId, to_cluster: ClusterId) -> None:
        """Relocate *peer_id* from *from_cluster* to *to_cluster*."""
        if from_cluster == to_cluster:
            raise ConfigurationError(
                f"cannot move peer {peer_id!r} to the cluster it already belongs to ({to_cluster!r})"
            )
        strategy = self._strategies.get(peer_id)
        if strategy is None:
            raise UnknownPeerError(peer_id)
        if from_cluster not in strategy:
            raise ConfigurationError(
                f"peer {peer_id!r} does not belong to cluster {from_cluster!r}"
            )
        destination = self.cluster(to_cluster)
        source = self._clusters[from_cluster]
        source.remove(peer_id)
        if source.is_empty:
            self._slot_turned(from_cluster, nonempty=False)
        strategy.remove(from_cluster)
        strategy.add(to_cluster)
        if destination.is_empty:
            self._slot_turned(to_cluster, nonempty=True)
        destination.add(peer_id)
        self._notify("configuration_unassigned", peer_id, from_cluster)
        self._notify("configuration_assigned", peer_id, to_cluster)

    def clusters_of(self, peer_id: PeerId) -> FrozenSet[ClusterId]:
        """The strategy ``s_i`` of *peer_id*: the set of clusters it belongs to."""
        strategy = self._strategies.get(peer_id)
        if strategy is None:
            raise UnknownPeerError(peer_id)
        return frozenset(strategy)

    def cluster_of(self, peer_id: PeerId) -> ClusterId:
        """The single cluster of *peer_id* (raises if the peer joined several clusters)."""
        strategy = self.clusters_of(peer_id)
        if len(strategy) != 1:
            raise ConfigurationError(
                f"peer {peer_id!r} belongs to {len(strategy)} clusters; expected exactly one"
            )
        return next(iter(strategy))

    def covered_peers(self, peer_id: PeerId) -> FrozenSet[PeerId]:
        """``P(s_i)``: the union of the member sets of the peer's clusters.

        For the protocol's common case — a peer belonging to exactly one
        cluster — this returns the cluster's cached member view directly
        instead of rebuilding a fresh set per call.
        """
        strategy = self._strategies.get(peer_id)
        if strategy is None:
            raise UnknownPeerError(peer_id)
        if len(strategy) == 1:
            return self._clusters[next(iter(strategy))].members
        covered: Set[PeerId] = set()
        for cluster_id in strategy:
            covered |= self._clusters[cluster_id].members
        return frozenset(covered)

    def __contains__(self, peer_id: PeerId) -> bool:
        return peer_id in self._strategies

    # -- analysis helpers ---------------------------------------------------------------

    def num_nonempty_clusters(self) -> int:
        """Number of clusters with at least one member (the paper's ``#Clusters``)."""
        return len(self._nonempty)

    def as_partition(self) -> Dict[ClusterId, FrozenSet[PeerId]]:
        """The non-empty clusters as a mapping ``cluster id -> members``."""
        return {cluster_id: self.members(cluster_id) for cluster_id in self.nonempty_clusters()}

    def membership_matrix(self, peer_order: Sequence[PeerId], cluster_order: Optional[Sequence[ClusterId]] = None) -> Tuple[np.ndarray, List[ClusterId]]:
        """0/1 membership matrix ``(|P|, |C|)`` used by the vectorised cost evaluation.

        Returns the matrix and the cluster ordering of its columns.
        """
        clusters = list(cluster_order) if cluster_order is not None else self.cluster_ids()
        matrix = np.zeros((len(peer_order), len(clusters)), dtype=float)
        cluster_index = {cluster_id: column for column, cluster_id in enumerate(clusters)}
        for row, peer_id in enumerate(peer_order):
            if peer_id not in self._strategies:
                continue
            for cluster_id in self._strategies[peer_id]:
                column = cluster_index.get(cluster_id)
                if column is not None:
                    matrix[row, column] = 1.0
        return matrix, clusters

    def signature(self) -> Tuple[Tuple[ClusterId, Tuple[PeerId, ...]], ...]:
        """A hashable snapshot of the partition, useful for convergence/cycle detection."""
        clusters = self._clusters
        return tuple(
            (cluster_id, clusters[cluster_id].sorted_members()) for cluster_id in self._nonempty
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterConfiguration):
            return NotImplemented
        return self.as_partition() == other.as_partition()

    def __repr__(self) -> str:
        return (
            f"ClusterConfiguration(peers={len(self._strategies)}, "
            f"clusters={self.num_nonempty_clusters()}/{len(self._clusters)})"
        )
