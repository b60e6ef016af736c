"""Overlay substrate: topologies, messages and routing.

The routers defined here decide which clusters a query reaches
(:meth:`~repro.overlay.routing.QueryRouter.target_clusters`); the one
query-serving path in :mod:`repro.traffic` resolves the providers through
recall-matrix products, both to serve event streams and to observe a period
into :class:`~repro.peers.statistics.PeriodStatistics`.  Both count messages
with the conventions of :class:`MessageBus`.
"""

from repro.overlay.messages import MessageBus
from repro.overlay.routing import BroadcastRouter, ProbeKRouter, QueryRouter
from repro.overlay.topology import (
    ClusterTopology,
    FullMeshTopology,
    RingTopology,
    StructuredTopology,
)

__all__ = [
    "MessageBus",
    "QueryRouter",
    "BroadcastRouter",
    "ProbeKRouter",
    "ClusterTopology",
    "FullMeshTopology",
    "RingTopology",
    "StructuredTopology",
]
