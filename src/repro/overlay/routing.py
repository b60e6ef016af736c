"""Query routing over the clustered overlay.

The paper assumes that every result returned to a peer is annotated with the
``cid`` of the cluster that provided it, and defines *cluster recall* as the
fraction of the results returned by a cluster relative to all results
returned for the query.  How many clusters a query reaches depends on the
routing algorithm; when a query reaches every cluster, cluster recall is
exact.

Two routers are provided:

* :class:`BroadcastRouter` — the query is evaluated against every non-empty
  cluster (exact cluster recall; the setting under which the paper's
  definitions coincide with the global recall model).
* :class:`ProbeKRouter` — the query only reaches the issuer's own cluster
  plus the ``k - 1`` largest other clusters, modelling a cheaper routing
  scheme; observed cluster recall then under-estimates remote clusters,
  which is exactly the approximation the local strategies have to live with.

A router only decides :meth:`QueryRouter.target_clusters`.  The providers
are resolved vectorised in :mod:`repro.traffic.simulator`, once per issuer
cluster when the router declares :attr:`QueryRouter.cluster_invariant`:
:class:`~repro.traffic.simulator.TrafficSimulator` serves event streams and
:func:`~repro.traffic.simulator.observe_period` returns a period's
observation arrays.  Custom routers work on both automatically.
"""

from __future__ import annotations

from collections.abc import Hashable
from numbers import Integral
from typing import List

from repro.errors import ConfigurationError
from repro.peers.configuration import ClusterConfiguration
from repro.peers.network import PeerNetwork
from repro.registry import register_router, router_registry

__all__ = [
    "QueryRouter",
    "BroadcastRouter",
    "ProbeKRouter",
    "build_router",
]

PeerId = Hashable
ClusterId = Hashable


class QueryRouter:
    """Base class for routing a query from its issuer over the clustered overlay."""

    #: Whether :meth:`target_clusters` depends only on the issuer's *cluster*
    #: (not on the issuer's identity or the query).  Both built-in routers
    #: qualify; the routing tables use the flag to collapse to one row per
    #: cluster instead of one per peer.
    cluster_invariant = False

    def __init__(self, network: PeerNetwork) -> None:
        self.network = network

    def target_clusters(
        self, issuer: PeerId, configuration: ClusterConfiguration
    ) -> List[ClusterId]:
        """The clusters the query will reach (routing policy); implemented by subclasses."""
        raise NotImplementedError


@register_router("broadcast")
class BroadcastRouter(QueryRouter):
    """Route every query to every non-empty cluster (exact cluster recall)."""

    cluster_invariant = True

    def target_clusters(
        self, issuer: PeerId, configuration: ClusterConfiguration
    ) -> List[ClusterId]:
        return configuration.nonempty_clusters()


@register_router("probe-k", aliases=("probe",))
class ProbeKRouter(QueryRouter):
    """Route a query to the issuer's cluster plus the ``k - 1`` largest other clusters."""

    cluster_invariant = True

    def __init__(self, network: PeerNetwork, k: int) -> None:
        super().__init__(network)
        if isinstance(k, bool) or not isinstance(k, Integral) or k < 1:
            raise ConfigurationError(f"probe-k router k must be an integer >= 1, got {k!r}")
        self.k = k

    def target_clusters(
        self, issuer: PeerId, configuration: ClusterConfiguration
    ) -> List[ClusterId]:
        own_cluster = configuration.cluster_of(issuer)
        others = [
            cluster_id
            for cluster_id in configuration.nonempty_clusters()
            if cluster_id != own_cluster
        ]
        others.sort(key=lambda cluster_id: (-configuration.size(cluster_id), repr(cluster_id)))
        return [own_cluster] + others[: self.k - 1]


def build_router(name: str, network: PeerNetwork, **kwargs: object) -> QueryRouter:
    """Construct a query router by its registered *name*.

    Built-ins: ``broadcast`` and ``probe-k`` (the latter takes ``k``); new
    routers plug in through :func:`repro.registry.register_router`.
    """
    return router_registry.create(name, network, **kwargs)
