"""Peer substrate: peers, clusters, configurations, networks and period statistics."""

from repro.peers.cluster import Cluster
from repro.peers.configuration import ClusterConfiguration
from repro.peers.network import PeerNetwork
from repro.peers.peer import Peer
from repro.peers.statistics import PeriodStatistics

__all__ = [
    "Peer",
    "Cluster",
    "ClusterConfiguration",
    "PeerNetwork",
    "PeriodStatistics",
]
