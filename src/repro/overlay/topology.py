"""Intra-cluster topologies.

The paper leaves the internal organisation of a cluster abstract and only
requires that the membership cost function ``theta`` reflects it: a fully
connected cluster gives a linear ``theta``, a structured (DHT-like) cluster a
logarithmic one.  The traffic simulator additionally needs a notion of how
many hops a query travels inside a cluster, so each topology exposes both:

* :meth:`ClusterTopology.theta` — the matching membership cost function,
* :meth:`ClusterTopology.lookup_hops` — expected intra-cluster hops to reach
  all members (the per-query hop/latency charges of :mod:`repro.traffic`),
* :meth:`ClusterTopology.maintenance_messages` — messages needed per
  join/leave event.
"""

from __future__ import annotations

import math

from repro.core.theta import LinearTheta, LogarithmicTheta, ThetaFunction

__all__ = ["ClusterTopology", "FullMeshTopology", "RingTopology", "StructuredTopology"]


class ClusterTopology:
    """Base class for intra-cluster topologies."""

    name = "topology"

    def theta(self) -> ThetaFunction:
        """The membership cost function induced by this topology."""
        raise NotImplementedError

    def lookup_hops(self, size: int) -> int:
        """Hops needed to deliver a query to every member of a cluster of *size* peers."""
        raise NotImplementedError

    def maintenance_messages(self, size: int) -> int:
        """Messages exchanged when a peer joins or leaves a cluster of *size* peers."""
        raise NotImplementedError

    def _validate(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"cluster size must be non-negative, got {size}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FullMeshTopology(ClusterTopology):
    """All peers in the cluster are directly connected (the paper's evaluation setting)."""

    name = "full-mesh"

    def theta(self) -> ThetaFunction:
        return LinearTheta()

    def lookup_hops(self, size: int) -> int:
        self._validate(size)
        # One hop from the issuer (or the entry point) to each other member.
        return max(size - 1, 0)

    def maintenance_messages(self, size: int) -> int:
        self._validate(size)
        # The joining/leaving peer must (dis)connect from every other member.
        return max(size - 1, 0)


class RingTopology(ClusterTopology):
    """Members form a ring; queries are forwarded around it."""

    name = "ring"

    def theta(self) -> ThetaFunction:
        return LinearTheta(slope=0.5)

    def lookup_hops(self, size: int) -> int:
        self._validate(size)
        return max(size - 1, 0)

    def maintenance_messages(self, size: int) -> int:
        self._validate(size)
        # Joining a ring only touches the two neighbours.
        return min(size, 2)


class StructuredTopology(ClusterTopology):
    """A structured (DHT-like) intra-cluster overlay with logarithmic routing."""

    name = "structured"

    def theta(self) -> ThetaFunction:
        return LogarithmicTheta()

    def lookup_hops(self, size: int) -> int:
        self._validate(size)
        if size <= 1:
            return 0
        return int(math.ceil(math.log2(size)))

    def maintenance_messages(self, size: int) -> int:
        self._validate(size)
        if size <= 1:
            return 0
        return int(math.ceil(math.log2(size))) * 2
