"""The paper's cost model: individual cost, social cost and workload cost.

Equation (1) — individual cost of peer ``p`` for strategy ``s_i``::

    pcost(p, s_i) = alpha * sum over c in s_i of theta(|c|) / |P|
                    + sum over q in Q(p) of num(q, Q(p)) / num(Q(p))
                          * sum over p_j not in P(s_i) of r(q, p_j)

Equation (2) — social cost of a configuration ``S``::

    SCost(S) = sum over peers p_i of pcost(p_i, s_i)

Equation (3) — workload cost of ``S``::

    WCost(S) = alpha * sum over clusters c of |c| * theta(|c|) / |P|
               + sum over q_m in Q of num(q_m, Q)/num(Q)
                     * sum over p_i with q_m in Q(p_i) of num(q_m, Q(p_i))/num(q_m, Q)
                           * sum over p_j not in P(s_i) of r(q_m, p_j)

The difference between the two global costs is only the query weighting:
SCost weights each query by its frequency in the *issuer's local* workload,
WCost by its frequency in the *global* workload, which makes demanding peers
count more (Property 1 in :mod:`repro.game.properties` formalises when the
two coincide up to a constant).

:class:`CostModel` evaluates all three against any *configuration* object
exposing the small read-only interface documented below (implemented by
:class:`repro.peers.configuration.ClusterConfiguration`):

* ``cluster_ids()`` — iterable of all cluster identifiers,
* ``members(cluster_id)`` — the set of peer ids in a cluster,
* ``clusters_of(peer_id)`` — the set of cluster ids the peer belongs to
  (its strategy ``s_i``),
* ``covered_peers(peer_id)`` — the peer set ``P(s_i)``,
* ``size(cluster_id)`` — number of members of the cluster.

A :class:`WeightedRecallMatrix` can optionally be attached to accelerate the
recall-loss terms; results agree with the exact per-query evaluation up to
float rounding (verified by the test suite).
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Mapping
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.queries import QueryWorkload
from repro.core.recall import RecallModel
from repro.core.recall_matrix import WeightedRecallMatrix
from repro.core.theta import LinearTheta, ThetaFunction
from repro.errors import ConfigurationError

__all__ = ["CostModel", "NEW_CLUSTER"]

PeerId = Hashable
ClusterId = Hashable

#: Sentinel cluster identifier meaning "move to a fresh, currently empty cluster".
NEW_CLUSTER = "__new_cluster__"


class CostModel:
    """Evaluates the paper's individual and global cost functions.

    Parameters
    ----------
    recall_model:
        Exact recall model over the peer population.
    workloads:
        Mapping from peer id to its local query workload ``Q(p)``.
    theta:
        Cluster membership cost function (defaults to the paper's linear
        function).
    alpha:
        Weight of the membership term (finite, ``alpha >= 0``; the paper's
        experiments use 1).
    population_size:
        ``|P|`` used for normalising the membership term.  Defaults to the
        number of peers known to the recall model.
    matrix:
        Optional pre-computed :class:`WeightedRecallMatrix`; when present the
        recall-loss terms are computed from it instead of per-query sums.
    """

    def __init__(
        self,
        recall_model: RecallModel,
        workloads: Mapping[PeerId, QueryWorkload],
        *,
        theta: Optional[ThetaFunction] = None,
        alpha: float = 1.0,
        population_size: Optional[int] = None,
        matrix: Optional[WeightedRecallMatrix] = None,
    ) -> None:
        if not (math.isfinite(alpha) and alpha >= 0):
            raise ConfigurationError(f"alpha must be a finite number >= 0, got {alpha!r}")
        self.recall_model = recall_model
        self.workloads = workloads
        self.theta = theta if theta is not None else LinearTheta()
        self.alpha = alpha
        self.population_size = population_size if population_size is not None else len(recall_model)
        if self.population_size <= 0:
            raise ConfigurationError(
                f"population_size must be positive, got {self.population_size!r}"
            )
        self._matrix = matrix

    # -- matrix management ---------------------------------------------------

    def attach_matrix(self, matrix: Optional[WeightedRecallMatrix]) -> None:
        """Attach (or detach with ``None``) a pre-computed recall matrix."""
        self._matrix = matrix

    def build_matrix(self) -> WeightedRecallMatrix:
        """Build, attach and return a fresh :class:`WeightedRecallMatrix`."""
        matrix = WeightedRecallMatrix(self.recall_model, self.workloads)
        self._matrix = matrix
        return matrix

    @property
    def matrix(self) -> Optional[WeightedRecallMatrix]:
        """The attached recall matrix, if any."""
        return self._matrix

    # -- individual cost -------------------------------------------------------

    def membership_cost(self, cluster_sizes: Iterable[int]) -> float:
        """Membership term ``alpha * sum theta(|c|) / |P|`` for the given cluster sizes."""
        return self.alpha * sum(self.theta(size) for size in cluster_sizes) / self.population_size

    def recall_loss(self, peer_id: PeerId, covered_peers: Iterable[PeerId]) -> float:
        """Locally-weighted recall loss of *peer_id* given the covered peer set ``P(s_i)``."""
        if self._matrix is not None:
            # The matrix translates (and memoises) the peer set itself; no
            # per-call repr-sort or set rebuild on the hot path.
            return self._matrix.recall_loss(peer_id, covered_peers)
        covered = set(covered_peers)
        workload = self.workloads.get(peer_id)
        if workload is None or workload.total() == 0:
            return 0.0
        total = workload.total()
        loss = 0.0
        for query, count in workload.items():
            loss += (count / total) * self.recall_model.recall_loss(query, covered)
        return loss

    def global_recall_loss(self, peer_id: PeerId, covered_peers: Iterable[PeerId]) -> float:
        """Globally-weighted recall loss of *peer_id* (used by the workload cost).

        With a matrix attached this is the locally-weighted loss scaled by
        the peer's share of all issued queries
        (:attr:`WeightedRecallMatrix.workload_share`); without one, each
        query is weighted by its global frequency directly.
        """
        matrix = self._matrix
        if matrix is not None:
            share = float(matrix.workload_share[matrix.index_of(peer_id)])
            return share * matrix.recall_loss(peer_id, covered_peers)
        covered = set(covered_peers)
        workload = self.workloads.get(peer_id)
        if workload is None or workload.total() == 0:
            return 0.0
        global_total = sum(load.total() for load in self.workloads.values())
        if global_total == 0:
            return 0.0
        loss = 0.0
        for query, count in workload.items():
            loss += (count / global_total) * self.recall_model.recall_loss(query, covered)
        return loss

    def pcost(self, peer_id: PeerId, configuration: object) -> float:
        """Individual cost (Eq. 1) of *peer_id* under its current strategy in *configuration*."""
        clusters = configuration.clusters_of(peer_id)
        sizes = [configuration.size(cluster_id) for cluster_id in clusters]
        covered = configuration.covered_peers(peer_id)
        if peer_id not in covered:
            covered = set(covered)
            covered.add(peer_id)
        return self.membership_cost(sizes) + self.recall_loss(peer_id, covered)

    def prospective_pcost(
        self,
        peer_id: PeerId,
        cluster_id: ClusterId,
        configuration: object,
    ) -> float:
        """Individual cost *peer_id* would incur with the single-cluster strategy *cluster_id*.

        The evaluation is "as if" the peer were a member: the cluster size
        includes the peer, and the peer's own content is never counted as
        lost recall.  Passing :data:`NEW_CLUSTER` evaluates the cost of
        moving to a fresh, empty cluster (the cluster-creation rule of
        Section 3.2).
        """
        if cluster_id == NEW_CLUSTER:
            members = set()
        else:
            members = set(configuration.members(cluster_id))
        prospective_members = set(members)
        prospective_members.add(peer_id)
        membership = self.membership_cost([len(prospective_members)])
        return membership + self.recall_loss(peer_id, prospective_members)

    # -- global costs ------------------------------------------------------------

    def _single_cluster_terms(
        self, configuration: object
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(membership, loss, rows)`` of every peer in one array pass, or ``None``.

        The pass applies when a dense matrix is attached and every peer of
        the recall model sits in exactly one cluster.  Over
        :attr:`RecallModel.peer_ids`, ``membership`` is
        ``membership_cost([|c|])`` of each peer's cluster, ``loss`` its
        recall loss and ``rows`` its matrix row.  Each value equals the
        per-peer one under ``==``: row totals are ``W.sum(axis=1)`` and a
        cluster's covered weights ``W[np.ix_(rows, rows)].sum(axis=1)``
        over the members' sorted rows, the same values reduced in the same
        order as ``W[row].sum()`` and ``W[row, covered_indices].sum()``.
        Outside the regime (no dense matrix, a peer in several clusters or
        in none, or one the matrix does not index) it returns ``None`` and
        the callers keep the per-peer loop and its errors.
        """
        matrix = self._matrix
        if matrix is None or matrix.mode != "dense":
            return None
        index_of = matrix.peer_index
        try:
            rows = np.array(
                [index_of[peer_id] for peer_id in self.recall_model.peer_ids], dtype=np.intp
            )
        except KeyError:
            return None
        local = matrix.local_view()
        clusters_of_row = np.zeros(len(index_of), dtype=np.intp)
        membership = np.zeros(len(index_of))
        covered = np.zeros(len(index_of))
        for cluster_id in configuration.cluster_ids():
            members = configuration.members(cluster_id)
            if not members:
                continue
            member_rows = matrix.covered_indices(members)
            clusters_of_row[member_rows] += 1
            membership[member_rows] = self.membership_cost([configuration.size(cluster_id)])
            covered[member_rows] = local[np.ix_(member_rows, member_rows)].sum(axis=1)
        if not (clusters_of_row[rows] == 1).all():
            return None
        return membership[rows], local.sum(axis=1)[rows] - covered[rows], rows

    def social_cost(self, configuration: object, *, normalized: bool = False) -> float:
        """Social cost (Eq. 2): sum of all individual costs.

        The individual costs are summed with the built-in :func:`sum` in
        :attr:`RecallModel.peer_ids` order, from the array pass of
        :meth:`_single_cluster_terms` when it applies and peer by peer
        through :meth:`pcost` otherwise, so both give the same bits.  (Python
        3.12's :func:`sum` of floats is compensated and differs from a
        ``+=`` loop or :func:`numpy.cumsum`; either reduction would match
        only on some Python versions.)
        """
        terms = self._single_cluster_terms(configuration)
        if terms is None:
            total = sum(
                self.pcost(peer_id, configuration) for peer_id in self.recall_model.peer_ids
            )
        else:
            membership, loss, _rows = terms
            total = sum((membership + loss).tolist())
        if normalized:
            return total / self.population_size
        return total

    def workload_cost(self, configuration: object, *, normalized: bool = False) -> float:
        """Workload cost (Eq. 3).

        With ``normalized=True`` the maintenance term is additionally divided
        by ``|P|`` (as the social cost is) while the recall term — which is
        already an average over query occurrences and therefore lies in
        ``[0, 1]`` — is reported as-is.  This is the scale on which the paper
        reports WCost: the ideal same-category clustering yields
        ``WCost = SCost = alpha / M`` and the two measures stay comparable in
        every other scenario.

        The recall term adds each peer's globally weighted loss with ``+=``
        in :attr:`RecallModel.peer_ids` order.  When the array pass of
        :meth:`_single_cluster_terms` applies, the losses come from it, each
        scaled by the peer's :attr:`WeightedRecallMatrix.workload_share` as
        :meth:`global_recall_loss` does, and are added in the same order.
        """
        maintenance = 0.0
        for cluster_id in configuration.cluster_ids():
            size = configuration.size(cluster_id)
            maintenance += size * self.theta(size)
        maintenance = self.alpha * maintenance / self.population_size

        loss = 0.0
        terms = self._single_cluster_terms(configuration)
        if terms is None:
            for peer_id in self.recall_model.peer_ids:
                covered = configuration.covered_peers(peer_id)
                if peer_id not in covered:
                    covered = set(covered)
                    covered.add(peer_id)
                loss += self.global_recall_loss(peer_id, covered)
        else:
            _membership, losses, rows = terms
            for term in (self._matrix.workload_share[rows] * losses).tolist():
                loss += term
        if normalized:
            return maintenance / self.population_size + loss
        return maintenance + loss

    def per_peer_costs(self, configuration: object) -> Dict[PeerId, float]:
        """Individual cost of every peer (useful for reporting and Figure 4)."""
        return {
            peer_id: self.pcost(peer_id, configuration)
            for peer_id in self.recall_model.peer_ids
        }

    def __repr__(self) -> str:
        return (
            f"CostModel(alpha={self.alpha}, theta={self.theta!r}, "
            f"population={self.population_size}, matrix={'attached' if self._matrix else 'none'})"
        )
