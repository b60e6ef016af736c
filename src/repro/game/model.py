"""The cluster-formulation game.

Each peer is a player; its strategy is the set of clusters it joins (here,
as in the paper's protocol and experiments, a single cluster); its cost is
the individual cost of Eq. 1.  :class:`ClusterGame` ties a cost model to a
configuration and answers the game-theoretic questions the paper asks:

* what is a peer's best response to the current configuration,
* how much would it gain by deviating (``pgain``),
* is the configuration a pure Nash equilibrium.

The game supports moving to any existing cluster **or** to a fresh empty
cluster (the :data:`~repro.core.costs.NEW_CLUSTER` option), which is how the
cluster-creation rule of Section 3.2 enters the model.  One rule,
:meth:`ClusterGame.candidate_clusters`, says which of these a peer may
consider, for the per-peer path and the batch kernel alike: with
``allow_new_clusters=False`` there is no fresh-cluster option, so the
cluster count cannot rise.  A
:class:`~repro.protocol.reformulation.ReformulationProtocol` with
``restrict_to_nonempty=True`` plays such a game whatever
``allow_cluster_creation`` says.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.costs import NEW_CLUSTER, CostModel
from repro.peers.configuration import ClusterConfiguration

if TYPE_CHECKING:
    from repro.game.kernel import BestResponseKernel

__all__ = ["BestResponse", "ClusterGame"]

PeerId = Hashable
ClusterId = Hashable


@dataclass(frozen=True)
class BestResponse:
    """The outcome of a best-response computation for one peer.

    Attributes
    ----------
    peer_id:
        The deviating peer.
    current_cluster:
        The cluster the peer currently belongs to.
    best_cluster:
        The cluster minimising the peer's prospective individual cost
        (may equal ``current_cluster``, or be :data:`NEW_CLUSTER`).
    current_cost:
        ``pcost`` under the current strategy.
    best_cost:
        ``pcost`` under the best response.
    """

    peer_id: PeerId
    current_cluster: ClusterId
    best_cluster: ClusterId
    current_cost: float
    best_cost: float

    @property
    def gain(self) -> float:
        """``pgain``: the cost reduction obtained by deviating (>= 0 by construction)."""
        return self.current_cost - self.best_cost

    @property
    def wants_to_move(self) -> bool:
        """``True`` when the best response differs from the current cluster with positive gain."""
        return self.best_cluster != self.current_cluster and self.gain > 0.0


class ClusterGame:
    """Game-theoretic view over a cost model and a cluster configuration.

    Every peer considers the same candidate clusters,
    :meth:`candidate_clusters`: the non-empty clusters, plus
    :data:`NEW_CLUSTER` when ``allow_new_clusters`` is set and an empty
    slot exists.  So ``allow_new_clusters=False`` keeps the cluster count
    from rising.

    When the cost model has a :class:`WeightedRecallMatrix` attached, the
    game builds and owns a :class:`~repro.game.kernel.BestResponseKernel`
    (:attr:`kernel`) on first use, and the batch entry points
    (:meth:`best_responses`, :meth:`best_deviation`, :meth:`selection`,
    :meth:`social_cost`, :meth:`workload_cost`, :meth:`current_costs`)
    answer from its incrementally maintained state.  Without a kernel (no
    matrix, or the configuration gained a peer the matrix does not know)
    they go peer by peer through the exact :class:`CostModel`.
    """

    def __init__(
        self,
        cost_model: CostModel,
        configuration: ClusterConfiguration,
        *,
        allow_new_clusters: bool = True,
    ) -> None:
        self.cost_model = cost_model
        self.configuration = configuration
        self.allow_new_clusters = allow_new_clusters
        self._kernel: Optional["BestResponseKernel"] = None

    @property
    def kernel(self) -> Optional["BestResponseKernel"]:
        """The game's :class:`BestResponseKernel`, or ``None`` when there is none.

        Built on first use when a recall matrix is attached.  ``None``
        without a matrix, and once the kernel went stale (the configuration
        gained a peer the matrix does not know).
        """
        if self._kernel is None:
            if self.cost_model.matrix is None:
                return None
            from repro.game.kernel import BestResponseKernel

            self._kernel = BestResponseKernel(self.cost_model, self.configuration)
        return None if self._kernel.stale else self._kernel

    # -- candidate strategies ----------------------------------------------------

    def candidate_clusters(self) -> List[ClusterId]:
        """The clusters every peer may consider moving to (Sections 3.1-3.2).

        All non-empty clusters, plus :data:`NEW_CLUSTER` (a move to an empty
        slot) when ``allow_new_clusters`` is set and an empty slot exists.
        The per-peer best response and the kernel both read this list.
        """
        candidates = self.configuration.nonempty_clusters()
        if self.allow_new_clusters and self.configuration.empty_clusters():
            candidates.append(NEW_CLUSTER)
        return candidates

    # -- per-peer analysis ----------------------------------------------------------

    def current_cost(self, peer_id: PeerId) -> float:
        """``pcost`` of *peer_id* under the current configuration."""
        return self.cost_model.pcost(peer_id, self.configuration)

    def prospective_cost(self, peer_id: PeerId, cluster_id: ClusterId) -> float:
        """``pcost`` of *peer_id* if it relocated to *cluster_id*."""
        return self.cost_model.prospective_pcost(peer_id, cluster_id, self.configuration)

    def cost_by_cluster(self, peer_id: PeerId) -> Dict[ClusterId, float]:
        """Prospective ``pcost`` of *peer_id* for every candidate cluster."""
        return {
            cluster_id: self.prospective_cost(peer_id, cluster_id)
            for cluster_id in self.candidate_clusters()
        }

    def best_response(self, peer_id: PeerId) -> BestResponse:
        """The cluster minimising the prospective cost of *peer_id* (Eq. 5)."""
        current_cluster = self.configuration.cluster_of(peer_id)
        current_cost = self.current_cost(peer_id)
        best_cluster = current_cluster
        best_cost = current_cost
        for cluster_id in self.candidate_clusters():
            if cluster_id == current_cluster:
                continue
            cost = self.prospective_cost(peer_id, cluster_id)
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_cluster = cluster_id
        return BestResponse(
            peer_id=peer_id,
            current_cluster=current_cluster,
            best_cluster=best_cluster,
            current_cost=current_cost,
            best_cost=best_cost,
        )

    def pgain(self, peer_id: PeerId) -> float:
        """``pgain`` of the peer's best response (0 when staying is optimal)."""
        return self.best_response(peer_id).gain

    # -- batch evaluation ----------------------------------------------------------

    def selection(self) -> Optional["BestResponseKernel.Selection"]:
        """The kernel's vectorised best-response selection over :meth:`candidate_clusters`.

        A :class:`BestResponseKernel.Selection` holding every matrix row's
        current and best columns, costs and stay/new-cluster flags; ``None``
        without a kernel or without a non-empty cluster.
        """
        kernel = self.kernel
        if kernel is None:
            return None
        return kernel.select(self.candidate_clusters())

    def best_responses(self, *, tolerance: float = 1e-12) -> Dict[PeerId, BestResponse]:
        """Best response of every assigned peer, from the kernel when there is one."""
        kernel = self.kernel
        if kernel is None:
            return {
                peer_id: self.best_response(peer_id)
                for peer_id in self.configuration.peer_ids()
            }
        responses, fallback_peers = kernel.best_response_all(
            self.candidate_clusters(), tolerance=tolerance
        )
        for peer_id in fallback_peers:
            responses[peer_id] = self.best_response(peer_id)
        return responses

    # -- global analysis ---------------------------------------------------------------

    def is_nash_equilibrium(self, *, tolerance: float = 1e-9) -> bool:
        """``True`` when no peer can reduce its cost by more than *tolerance* by deviating."""
        return self.best_deviation(tolerance=tolerance) is None

    def deviating_peers(self, *, tolerance: float = 1e-9) -> List[BestResponse]:
        """Best responses of every peer that strictly gains by deviating."""
        responses = self.best_responses()
        return [
            responses[peer_id]
            for peer_id in self.configuration.peer_ids()
            if responses[peer_id].gain > tolerance
        ]

    def best_deviation(self, *, tolerance: float = 1e-9) -> Optional[BestResponse]:
        """The most profitable deviation, or ``None`` at a (tolerance-)equilibrium.

        Ties in gain break towards the largest ``repr(peer_id)``: the same
        rule as ``max(deviating_peers(), key=lambda r: (r.gain, repr(r.peer_id)))``,
        which this replaces on the best-response-dynamics hot path.  With a
        kernel only the winning response is materialised.
        """
        kernel = self.kernel
        if kernel is None:
            return max(
                self.deviating_peers(tolerance=tolerance),
                key=lambda response: (response.gain, repr(response.peer_id)),
                default=None,
            )
        best, fallback_peers = kernel.best_deviation(
            self.candidate_clusters(), gain_tolerance=tolerance
        )
        for peer_id in fallback_peers:
            response = self.best_response(peer_id)
            if response.gain <= tolerance:
                continue
            if best is None or (response.gain, repr(response.peer_id)) > (
                best.gain,
                repr(best.peer_id),
            ):
                best = response
        return best

    def current_costs(self) -> Dict[PeerId, float]:
        """``pcost`` of every assigned peer under its current strategy."""
        kernel = self.kernel
        if kernel is not None:
            return kernel.current_costs()
        return {peer_id: self.current_cost(peer_id) for peer_id in self.configuration.peer_ids()}

    def social_cost(self, *, normalized: bool = False) -> float:
        """Social cost (Eq. 2) of the current configuration."""
        kernel = self.kernel
        if kernel is not None:
            return kernel.social_cost(normalized=normalized)
        return self.cost_model.social_cost(self.configuration, normalized=normalized)

    def workload_cost(self, *, normalized: bool = False) -> float:
        """Workload cost (Eq. 3) of the current configuration."""
        kernel = self.kernel
        if kernel is not None:
            return kernel.workload_cost(normalized=normalized)
        return self.cost_model.workload_cost(self.configuration, normalized=normalized)

    def __repr__(self) -> str:
        return f"ClusterGame(peers={len(self.configuration.peer_ids())}, {self.configuration!r})"
