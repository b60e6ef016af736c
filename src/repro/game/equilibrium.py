"""Equilibrium analysis, including the paper's two-peer counterexample.

Section 2.3 of the paper shows that a pure Nash equilibrium does not always
exist: with two peers ``p1`` and ``p2``, where ``Q(p1)`` consists of a single
query ``q1`` satisfied (only) by ``p2`` and ``Q(p2)`` consists of ``q2`` also
satisfied only by ``p2``, a linear ``theta`` and any ``alpha > 0``, none of
the three possible single-cluster configurations is stable:

* ``{p1} | {p2}``: ``pcost(p1) = alpha/2 + 1`` — p1 gains by joining p2;
* both peers together: ``pcost(p2) = alpha`` — p2 gains by moving to an
  empty cluster (its own query is satisfied by itself);
* the symmetric split behaves like the first case.

This module builds that instance programmatically and provides generic
helpers to enumerate configurations and search for equilibria in small games.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from itertools import product
from typing import Dict, List

from repro.core.costs import CostModel
from repro.core.documents import Document
from repro.core.queries import Query
from repro.core.theta import LinearTheta
from repro.errors import ConfigurationError
from repro.game.model import ClusterGame
from repro.peers.configuration import ClusterConfiguration
from repro.peers.network import PeerNetwork
from repro.peers.peer import Peer

__all__ = [
    "CounterexampleInstance",
    "build_two_peer_counterexample",
    "enumerate_single_cluster_configurations",
    "find_pure_nash_equilibria",
]

PeerId = Hashable


@dataclass
class CounterexampleInstance:
    """The two-peer instance of Section 2.3 plus its cost model."""

    network: PeerNetwork
    cost_model: CostModel
    alpha: float

    def configurations(self) -> Dict[str, ClusterConfiguration]:
        """The three distinct single-cluster configurations of the instance."""
        peer_ids = self.network.peer_ids()
        split = ClusterConfiguration(["c1", "c2"], {peer_ids[0]: "c1", peer_ids[1]: "c2"})
        split_mirrored = ClusterConfiguration(["c1", "c2"], {peer_ids[0]: "c2", peer_ids[1]: "c1"})
        together = ClusterConfiguration(["c1", "c2"], {peer_ids[0]: "c1", peer_ids[1]: "c1"})
        return {"split": split, "split_mirrored": split_mirrored, "together": together}

    def has_pure_nash_equilibrium(self) -> bool:
        """``True`` if any of the three configurations is a Nash equilibrium."""
        for configuration in self.configurations().values():
            game = ClusterGame(self.cost_model, configuration, allow_new_clusters=True)
            if game.is_nash_equilibrium():
                return True
        return False


def build_two_peer_counterexample(*, alpha: float = 1.0) -> CounterexampleInstance:
    """Build the paper's two-peer no-equilibrium instance for a given ``alpha > 0``.

    Peer ``p2`` holds one document matching both queries; peer ``p1`` holds an
    unrelated document matching neither query.  ``Q(p1) = [q1]`` and
    ``Q(p2) = [q2]``, both satisfied solely by ``p2``.
    """
    if alpha <= 0:
        raise ConfigurationError(f"the counterexample requires alpha > 0, got {alpha}")
    query_one = Query(["music"])
    query_two = Query(["movies"])
    peer_one = Peer("p1", documents=[Document(["gardening"], doc_id="d1", category="other")])
    peer_two = Peer(
        "p2",
        documents=[Document(["music", "movies"], doc_id="d2", category="media")],
    )
    peer_one.issue_query(query_one)
    peer_two.issue_query(query_two)
    network = PeerNetwork([peer_one, peer_two])
    cost_model = network.cost_model(theta=LinearTheta(), alpha=alpha, use_matrix=False)
    return CounterexampleInstance(network=network, cost_model=cost_model, alpha=alpha)


def enumerate_single_cluster_configurations(
    peer_ids: Sequence[PeerId],
    cluster_ids: Sequence[Hashable],
) -> List[ClusterConfiguration]:
    """All assignments of each peer to exactly one cluster (``|C| ** |P|`` configurations).

    Only practical for tiny instances; intended for exhaustive equilibrium
    search in tests and analysis.
    """
    configurations = []
    for assignment in product(cluster_ids, repeat=len(peer_ids)):
        configuration = ClusterConfiguration(
            cluster_ids, {peer_id: cluster for peer_id, cluster in zip(peer_ids, assignment)}
        )
        configurations.append(configuration)
    return configurations


def find_pure_nash_equilibria(
    cost_model: CostModel,
    peer_ids: Sequence[PeerId],
    cluster_ids: Sequence[Hashable],
    *,
    allow_new_clusters: bool = True,
    tolerance: float = 1e-9,
) -> List[ClusterConfiguration]:
    """Exhaustively search the single-cluster strategy space for pure Nash equilibria."""
    equilibria = []
    seen: set = set()
    for configuration in enumerate_single_cluster_configurations(peer_ids, cluster_ids):
        signature = configuration.signature()
        if signature in seen:
            continue
        seen.add(signature)
        game = ClusterGame(cost_model, configuration, allow_new_clusters=allow_new_clusters)
        if game.is_nash_equilibrium(tolerance=tolerance):
            equilibria.append(configuration)
    return equilibria
