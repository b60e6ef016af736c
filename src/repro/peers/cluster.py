"""Clusters: named groups of peers.

Every cluster has a unique identifier ``cid`` known to all of its members
(the paper assumes exactly this) and a member set.  In the paper one member
acts as the cluster's *representative*, gathering and serving relocation
requests on its behalf; which member that is does not change a protocol
round's outcome, so a cluster names none (the protocol counts the
representatives' messages without one, see
:mod:`repro.protocol.representative`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Hashable, Iterable
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.errors import ConfigurationError

__all__ = ["Cluster"]

PeerId = Hashable
ClusterId = Hashable


class Cluster:
    """A cluster of peers identified by a unique ``cid``."""

    def __init__(self, cluster_id: ClusterId, members: Optional[Iterable[PeerId]] = None) -> None:
        self.cluster_id = cluster_id
        self._members: Set[PeerId] = set(members) if members is not None else set()
        # The members in ``repr`` order, kept across every add and remove.
        self._ordered: List[PeerId] = sorted(self._members, key=repr)
        self._members_view: Optional[FrozenSet[PeerId]] = None
        self._sorted_view: Optional[Tuple[PeerId, ...]] = None

    # -- membership -----------------------------------------------------------

    @property
    def members(self) -> FrozenSet[PeerId]:
        """The current member peer ids (immutable view, cached between mutations)."""
        if self._members_view is None:
            self._members_view = frozenset(self._members)
        return self._members_view

    def sorted_members(self) -> Tuple[PeerId, ...]:
        """The member peer ids in ``repr`` order (cached between mutations)."""
        if self._sorted_view is None:
            self._sorted_view = tuple(self._ordered)
        return self._sorted_view

    @property
    def size(self) -> int:
        """Number of members (``|c|``)."""
        return len(self._members)

    @property
    def is_empty(self) -> bool:
        """``True`` when the cluster has no members (an empty cluster slot)."""
        return not self._members

    def add(self, peer_id: PeerId) -> None:
        """Add *peer_id* to the cluster."""
        if peer_id in self._members:
            return
        self._members.add(peer_id)
        insort(self._ordered, peer_id, key=repr)
        self._members_view = None
        self._sorted_view = None

    def remove(self, peer_id: PeerId) -> None:
        """Remove *peer_id* from the cluster."""
        if peer_id not in self._members:
            raise ConfigurationError(
                f"peer {peer_id!r} is not a member of cluster {self.cluster_id!r}"
            )
        self._members.remove(peer_id)
        # Peers whose ``repr``s tie sit side by side from ``bisect_left`` on;
        # delete the peer itself, not the first of its ties.
        ordered = self._ordered
        del ordered[ordered.index(peer_id, bisect_left(ordered, repr(peer_id), key=repr))]
        self._members_view = None
        self._sorted_view = None

    def __contains__(self, peer_id: PeerId) -> bool:
        return peer_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self.sorted_members())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cluster):
            return NotImplemented
        return self.cluster_id == other.cluster_id and self._members == other._members

    def __repr__(self) -> str:
        return f"Cluster(cluster_id={self.cluster_id!r}, size={self.size})"
