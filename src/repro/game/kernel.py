"""Vectorized, incrementally-maintained best-response kernel.

The per-round hot loop of every experiment is "score all candidate clusters
for all peers".  Rebuilding the membership matrix and the ``W @ M``
covered-recall product for every call would re-do a full GEMM hundreds of
times per run, although each round only moves a handful of peers.

:class:`BestResponseKernel` keeps the pieces of that computation as *live*
state tied to one :class:`~repro.peers.configuration.ClusterConfiguration`.
Clusters partition peers, so membership is an integer *label vector* (one
cluster column per peer; the rare multi-membership peers spill into a tiny
overflow map) with per-row membership counts and two counters over them
(assigned rows, rows not in exactly one cluster), so the per-round cost
traces check the membership regime in O(1).  The covered recall ``CW``
follows the attached :class:`~repro.core.recall_matrix.WeightedRecallMatrix`,
whose form the population picks:

* ``dense`` (a dense matrix) — ``CW = W @ M`` over every cluster slot, ``M``
  being the 0/1 peers x cluster-slots membership read off the label vector
  when the product is built.  O(|P| x |C|) memory — exact, simple, and the
  right choice up to a few thousand peers.
* ``labels`` (a factored matrix) — ``CW`` shrinks to per-cluster
  covered columns computed as **segmented reductions** over the
  :class:`~repro.core.recall_matrix.FactoredRecall` arrays: a cluster's
  member columns collapse to a per-query group recall (O(|Q_u| x
  |members|)), then one O(|P| x kmax) gather redistributes it.  A peer move
  updates its two clusters' columns only on the rows it reaches — the peers
  that issue a query the mover answers, found through the recall's
  query -> issuers index — in O(reach x kmax) per column.  On the 5,000-peer
  same-category scenario a provider reaches ~490 rows, so one side of a
  move takes ~0.12 ms instead of ~1 ms for the whole column.  **No
  |P| x |C| matrix exists anywhere** — this is what makes best-response
  rounds at 10k-100k peers fit on one box.

The kernel registers itself as a configuration listener, so every
``assign`` / ``move`` / ``remove_peer`` updates the caches incrementally
(one column add/subtract: all |P| rows under ``dense``, the mover's reach
under ``labels``) instead of triggering a full rebuild.  The social and
workload costs read the same per-peer recall losses off ``CW``; the
workload cost weights each by the peer's share of all issued queries
(:attr:`~repro.core.recall_matrix.WeightedRecallMatrix.workload_share`).
:meth:`select` then scores *all* candidates for *all* peers with pure
array arithmetic, including the :data:`~repro.core.costs.NEW_CLUSTER`
option when the candidate list holds it, and reproduces the per-peer
evaluation exactly (the test suite pins both backends to the exact
per-query :class:`~repro.core.costs.CostModel`).

A :class:`~repro.game.model.ClusterGame` builds and owns its kernel
(:attr:`ClusterGame.kernel <repro.game.model.ClusterGame.kernel>`) and
hands it its one candidate list,
:meth:`~repro.game.model.ClusterGame.candidate_clusters`.  A protocol with
``restrict_to_nonempty=True`` plays a game that allows no new cluster, so
that list has no ``NEW_CLUSTER`` and the cluster count cannot rise whatever
``allow_cluster_creation`` says.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.costs import NEW_CLUSTER, CostModel
from repro.errors import ConfigurationError
from repro.game.model import BestResponse
from repro.peers.configuration import ClusterConfiguration

__all__ = ["BestResponseKernel"]

PeerId = Hashable
ClusterId = Hashable


class BestResponseKernel:
    """Live vectorized cost state over one configuration and cost model.

    Parameters
    ----------
    cost_model:
        Cost model with an attached :class:`WeightedRecallMatrix` (required —
        the kernel *is* the matrix acceleration).
    configuration:
        The configuration whose membership the kernel mirrors.  The kernel
        subscribes to its mutation events; it stays consistent for as long as
        the underlying recall matrix describes the network (content changes
        require a fresh cost model and hence a fresh kernel, exactly like the
        matrix itself).

    The backend follows the matrix: ``labels`` on a factored matrix,
    ``dense`` on a dense one (:attr:`backend` names it).
    """

    def __init__(self, cost_model: CostModel, configuration: ClusterConfiguration) -> None:
        matrix = cost_model.matrix
        if matrix is None:
            raise ConfigurationError(
                "BestResponseKernel requires a cost model with an attached WeightedRecallMatrix"
            )
        self.backend = "labels" if matrix.mode == "factored" else "dense"
        self.cost_model = cost_model
        self.configuration = configuration
        self._recall_matrix = matrix
        self._peer_order: List[PeerId] = matrix.peer_order
        # Shared with the matrix (built exactly once per matrix, not per kernel).
        self._peer_index: Dict[PeerId, int] = matrix.peer_index
        if self.backend == "labels":
            self._source = matrix.factored()
            self._W: Optional[np.ndarray] = None
            self._totals = self._source.totals_local()
            self._own = self._source.own_local()
        else:
            self._source = None
            self._W = matrix.local_view()
            self._totals = self._W.sum(axis=1)
            self._own = np.ascontiguousarray(np.diag(self._W))
        self._theta_table = np.zeros(0, dtype=float)
        #: Set when the configuration gained a peer unknown to the recall
        #: matrix; the kernel can no longer answer for it and callers should
        #: fall back to the reference path.
        self.stale = False
        self._rebuild()
        configuration.add_listener(self)

    # -- state construction --------------------------------------------------

    def _rebuild(self) -> None:
        """(Re)build every cache from the configuration.

        Both backends keep the label vector and the per-row membership
        counts.  Dense adds the O(|P|^2 |C|) ``W @ M`` product; labels
        builds nothing more — its covered columns materialise lazily per
        candidate cluster.
        """
        self._cluster_order: List[ClusterId] = list(self.configuration.cluster_ids())
        self._cluster_index: Dict[ClusterId, int] = {
            cluster_id: column for column, cluster_id in enumerate(self._cluster_order)
        }
        population = len(self._peer_order)
        #: Each tracked peer's cluster column: -1 unassigned, -2 when the
        #: peer joined several clusters (the actual set lives in _overflow).
        self._labels = np.full(population, -1, dtype=np.int64)
        self._counts = np.zeros(population, dtype=np.int64)
        self._overflow: Dict[int, Set[int]] = {}
        #: Rows with a nonzero count, and rows whose count is not exactly 1:
        #: the membership regime in O(1), kept by _assign_label/_unassign_label.
        self._assigned_rows = 0
        self._irregular_rows = population
        self._sizes = np.zeros(len(self._cluster_order), dtype=float)
        for cluster_id in self.configuration.nonempty_clusters():
            column = self._cluster_index[cluster_id]
            for peer_id in self.configuration.members(cluster_id):
                row = self._peer_index.get(peer_id)
                if row is None:
                    continue
                self._sizes[column] += 1.0
                self._assign_label(row, column)
        if self.backend == "labels":
            #: Lazily-materialised covered columns: column -> (|P|,) array.  A
            #: column is computed as a segmented reduction on first touch and
            #: incrementally +/- updated from then on.
            self._cw: Dict[int, np.ndarray] = {}
            return
        self._CW = self._W @ self._membership()

    def rebuild(self) -> None:
        """Public full rebuild (used by tests to cross-check the incremental state).

        The stale flag is recomputed, not blindly cleared: a configuration
        still holding peers the recall matrix does not know stays stale.
        """
        self._rebuild()
        self.stale = self._has_untracked_peers()

    def _has_untracked_peers(self) -> bool:
        """Whether the configuration holds assigned peers outside the matrix."""
        return self.configuration.num_peers() != self._assigned_rows

    def _untracked_peers(self) -> List[PeerId]:
        """Assigned peers the recall matrix (and hence the kernel) cannot score."""
        if not self._has_untracked_peers():
            return []
        return [
            peer_id
            for peer_id in self.configuration.peer_ids()
            if peer_id not in self._peer_index
        ]

    # -- label-vector bookkeeping ---------------------------------------------

    def _assign_label(self, row: int, column: int) -> None:
        count = int(self._counts[row])
        if count == 0:
            self._labels[row] = column
            self._assigned_rows += 1
            self._irregular_rows -= 1
        elif count == 1:
            self._overflow[row] = {int(self._labels[row]), column}
            self._labels[row] = -2
            self._irregular_rows += 1
        else:
            self._overflow[row].add(column)
        self._counts[row] = count + 1

    def _unassign_label(self, row: int, column: int) -> None:
        count = int(self._counts[row])
        self._counts[row] = count - 1
        if count == 1:
            self._assigned_rows -= 1
            self._irregular_rows += 1
        elif count == 2:
            self._irregular_rows -= 1
        member_columns = self._overflow.get(row)
        if member_columns is not None:
            member_columns.discard(column)
            if len(member_columns) == 1:
                self._labels[row] = member_columns.pop()
                del self._overflow[row]
        else:
            self._labels[row] = -1

    def _member_rows(self, column: int) -> np.ndarray:
        rows = np.nonzero(self._labels == column)[0]
        if self._overflow:
            extra = [row for row, columns in self._overflow.items() if column in columns]
            if extra:
                rows = np.unique(
                    np.concatenate([rows, np.asarray(extra, dtype=np.intp)])
                )
        return rows

    def _cw_column(self, column: int) -> np.ndarray:
        covered = self._cw.get(column)
        if covered is None:
            covered = self._source.covered_local(self._member_rows(column))
            self._cw[column] = covered
        return covered

    # -- backend-dispatched state reads ---------------------------------------

    def _membership_block(self, columns: Sequence[int]) -> np.ndarray:
        """0/1 membership of every peer against the given cluster columns."""
        cols = np.asarray(columns, dtype=np.int64)
        block = (self._labels[:, None] == cols[None, :]).astype(float)
        if self._overflow:
            position = {int(column): k for k, column in enumerate(cols)}
            for row, member_columns in self._overflow.items():
                for column in member_columns:
                    k = position.get(column)
                    if k is not None:
                        block[row, k] = 1.0
        return block

    def _membership(self) -> np.ndarray:
        """``M``: the 0/1 membership over every cluster slot (a fresh array)."""
        return self._membership_block(range(len(self._cluster_order)))

    def _covered_block(self, columns: Sequence[int]) -> np.ndarray:
        """``CW`` restricted to the given cluster columns."""
        if self.backend != "labels":
            return self._CW[:, columns]
        population = len(self._peer_order)
        if not len(columns):
            return np.zeros((population, 0))
        return np.stack([self._cw_column(int(column)) for column in columns], axis=1)

    def _counts_all(self) -> np.ndarray:
        """Per-peer cluster-membership counts (over every cluster slot; live, read-only)."""
        return self._counts

    def _covered_at(self, columns: np.ndarray) -> np.ndarray:
        """Per-peer covered recall from its *own* column: ``CW[i, columns[i]]``."""
        if self.backend != "labels":
            return self._CW[np.arange(columns.size), columns]
        out = np.empty(columns.size, dtype=float)
        for column in np.unique(columns):
            rows = np.nonzero(columns == column)[0]
            out[rows] = self._cw_column(int(column))[rows]
        return out

    # -- configuration listener callbacks ------------------------------------

    def configuration_assigned(self, peer_id: PeerId, cluster_id: ClusterId) -> None:
        row = self._peer_index.get(peer_id)
        if row is None:
            self.stale = True
            return
        column = self._cluster_index.get(cluster_id)
        if column is None:
            column = self._add_cluster_column(cluster_id)
        self._sizes[column] += 1.0
        self._assign_label(row, column)
        if self.backend == "labels":
            self._update_covered(row, column, np.add)
            return
        self._CW[:, column] += self._W[:, row]

    def configuration_unassigned(self, peer_id: PeerId, cluster_id: ClusterId) -> None:
        row = self._peer_index.get(peer_id)
        if row is None:
            return  # never tracked; nothing to undo
        column = self._cluster_index.get(cluster_id)
        if column is None:
            self.stale = True
            return
        self._sizes[column] -= 1.0
        self._unassign_label(row, column)
        if self.backend == "labels":
            self._update_covered(row, column, np.subtract)
            return
        self._CW[:, column] -= self._W[:, row]

    def _update_covered(self, row: int, column: int, operation: np.ufunc) -> None:
        """Add (``np.add``) or take away (``np.subtract``) provider *row* in column *column*.

        Labels backend only: updates the cluster's covered column, if live,
        on the rows the provider reaches
        (:meth:`FactoredRecall.reached_column`).  Every other row's term is
        an exact ``+0.0``, so skipping it leaves the column bit-identical to
        a whole-column update.
        """
        covered = self._cw.get(column)
        if covered is None:
            return
        rows, recall = self._source.reached_column(row)
        covered[rows] = operation(covered[rows], recall)

    def configuration_cluster_added(self, cluster_id: ClusterId) -> None:
        if cluster_id not in self._cluster_index:
            self._add_cluster_column(cluster_id)

    def _add_cluster_column(self, cluster_id: ClusterId) -> int:
        column = len(self._cluster_order)
        self._cluster_order.append(cluster_id)
        self._cluster_index[cluster_id] = column
        self._sizes = np.append(self._sizes, 0.0)
        if self.backend == "labels":
            return column
        population = len(self._peer_order)
        self._CW = np.hstack([self._CW, np.zeros((population, 1))])
        return column

    # -- accessors ------------------------------------------------------------

    @property
    def peer_order(self) -> List[PeerId]:
        """The row ordering of peer ids (the recall matrix's order)."""
        return list(self._peer_order)

    def membership_columns(
        self, cluster_order: Sequence[ClusterId]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(membership, sizes)`` restricted to *cluster_order* columns.

        The membership block is a copy (callers may scale it freely); the
        sizes are the live cluster sizes gathered in the same order.
        """
        columns = [self._cluster_index[cluster_id] for cluster_id in cluster_order]
        return self._membership_block(columns), self._sizes[columns].copy()

    def _theta_values(self, max_size: int) -> np.ndarray:
        if max_size >= self._theta_table.size:
            theta = self.cost_model.theta
            self._theta_table = np.array(
                [theta(size) for size in range(max_size + 1)], dtype=float
            )
        return self._theta_table

    # -- vectorized cost evaluation -------------------------------------------

    def _cost_table_for(
        self, membership: np.ndarray, covered: np.ndarray, columns: Sequence[int]
    ) -> np.ndarray:
        own = self._own[:, None]
        own_counted = membership * own
        covered_adjusted = covered - own_counted + own
        losses = self._totals[:, None] - covered_adjusted
        effective_sizes = self._sizes[columns][None, :] + (1.0 - membership)
        max_size = int(effective_sizes.max()) if effective_sizes.size else 0
        theta_table = self._theta_values(max_size)
        membership_costs = (
            self.cost_model.alpha
            * theta_table[effective_sizes.astype(int)]
            / self.cost_model.population_size
        )
        return membership_costs + losses

    def cost_table(self, candidate_clusters: Sequence[ClusterId]) -> np.ndarray:
        """Prospective ``pcost`` of every peer against every candidate cluster.

        ``table[i, k]`` is the individual cost peer ``i`` would incur with the
        single-cluster strategy ``candidate_clusters[k]`` — clusters the peer
        does not belong to are evaluated "as if joined" (size + 1, its own
        content always reachable), exactly like
        :meth:`CostModel.prospective_pcost`.
        """
        columns = [self._cluster_index[cluster_id] for cluster_id in candidate_clusters]
        return self._cost_table_for(
            self._membership_block(columns), self._covered_block(columns), columns
        )

    def new_cluster_costs(self) -> np.ndarray:
        """Cost of moving to a fresh, empty cluster, for every peer."""
        theta_one = float(self._theta_values(1)[1])
        membership = self.cost_model.alpha * theta_one / self.cost_model.population_size
        return membership + (self._totals - self._own)

    def _single_cluster_columns(self) -> Optional[np.ndarray]:
        """Column of each peer's single cluster, or ``None`` if any peer deviates.

        ``None`` means some tracked peer belongs to zero or several clusters
        (multi-membership is legal in the model but outside the vector fast
        path) — callers fall back to the per-peer reference evaluation.  The
        returned label vector is live: callers only read it.
        """
        if self._irregular_rows or not self._labels.size:
            return None
        return self._labels

    def _recall_losses(self, columns: np.ndarray) -> np.ndarray:
        """Each peer's Eq. 1 recall loss in its own cluster: ``totals - CW[i, columns[i]]``."""
        return self._totals - self._covered_at(columns)

    def _current_cost_vector(self, columns: np.ndarray) -> np.ndarray:
        sizes = self._sizes[columns]
        theta_table = self._theta_values(int(sizes.max()) if sizes.size else 0)
        membership = (
            self.cost_model.alpha
            * theta_table[sizes.astype(int)]
            / self.cost_model.population_size
        )
        return membership + self._recall_losses(columns)

    def current_costs(self) -> Dict[PeerId, float]:
        """``pcost`` of every assigned peer under its current strategy."""
        configuration = self.configuration
        columns = self._single_cluster_columns()
        if columns is not None and not self._has_untracked_peers():
            values = self._current_cost_vector(columns)
            return {
                peer_id: float(value)
                for peer_id, value in zip(self._peer_order, values)
            }
        return {
            peer_id: self.cost_model.pcost(peer_id, configuration)
            for peer_id in configuration.peer_ids()
        }

    def social_cost(self, *, normalized: bool = False) -> float:
        """Social cost (Eq. 2) of the current configuration, fully vectorized.

        Falls back to the cost model's per-peer evaluation whenever a tracked
        peer is not in the single-cluster regime, so the result always agrees
        with :meth:`CostModel.social_cost` (up to float summation order).
        """
        columns = self._single_cluster_columns()
        if columns is None or self._has_untracked_peers():
            return self.cost_model.social_cost(self.configuration, normalized=normalized)
        total = float(self._current_cost_vector(columns).sum())
        if normalized:
            return total / self.cost_model.population_size
        return total

    def workload_cost(self, *, normalized: bool = False) -> float:
        """Workload cost (Eq. 3) of the current configuration, fully vectorized.

        The maintenance term is ``alpha * sum |c| * theta(|c|) / |P|`` over the
        live cluster-size vector; the recall term is the recall losses
        :meth:`social_cost` reads, each weighted by the peer's share of all
        issued queries, replacing the per-peer Python loop of
        :meth:`CostModel.workload_cost` on the per-round trace path.  Falls
        back to the cost model whenever a tracked peer is outside the
        single-cluster regime, so the result always agrees with the reference
        (up to float summation order).
        """
        columns = self._single_cluster_columns()
        if columns is None or self._has_untracked_peers():
            return self.cost_model.workload_cost(self.configuration, normalized=normalized)
        sizes = self._sizes
        theta_table = self._theta_values(int(sizes.max()) if sizes.size else 0)
        maintenance = (
            self.cost_model.alpha
            * float((sizes * theta_table[sizes.astype(int)]).sum())
            / self.cost_model.population_size
        )
        share = self._recall_matrix.workload_share
        loss = float((share * self._recall_losses(columns)).sum())
        if normalized:
            return maintenance / self.cost_model.population_size + loss
        return maintenance + loss

    # -- best responses --------------------------------------------------------

    class Selection:
        """Arrays of one vectorized best-response evaluation, one entry per matrix row.

        ``candidates`` are the scored existing clusters (the columns of
        ``current_columns`` and ``best_columns``); ``use_new`` marks rows
        whose best response is :data:`NEW_CLUSTER`.  Only ``eligible`` rows
        (in exactly one cluster, a candidate) are settled by the arrays;
        ``fallback_rows`` lists the other assigned rows.
        """

        __slots__ = (
            "candidates",
            "eligible",
            "fallback_rows",
            "current_columns",
            "current_costs",
            "best_columns",
            "best_costs",
            "use_new",
            "stay",
            "gains",
        )

    def select(
        self, candidates: Sequence[ClusterId], *, tolerance: float = 1e-12
    ) -> Optional["BestResponseKernel.Selection"]:
        """Vectorized best-response selection of every tracked peer over *candidates*.

        *candidates* lists existing clusters and, for the fresh-cluster
        option, :data:`NEW_CLUSTER`.  Mirrors the per-peer semantics bit for
        bit: global argmin over the existing candidates, a
        strictly-better-by-*tolerance* test for the fresh cluster, and "stay
        unless strictly better than the current cost".  Rows outside the
        single-cluster regime (or whose cluster is not a candidate) land in
        ``fallback_rows``.  ``None`` when no existing cluster is a candidate.
        """
        existing = [cluster_id for cluster_id in candidates if cluster_id != NEW_CLUSTER]
        if not existing:
            return None
        columns = [self._cluster_index[cluster_id] for cluster_id in existing]
        membership = self._membership_block(columns)
        costs = self._cost_table_for(membership, self._covered_block(columns), columns)
        counts_all = self._counts_all()
        assigned = counts_all > 0.0
        eligible = assigned & (counts_all == 1.0) & (membership.sum(axis=1) == 1.0)
        rows = np.arange(len(self._peer_order))
        current_columns = np.argmax(membership, axis=1)
        current_costs = costs[rows, current_columns]
        best_columns = np.argmin(costs, axis=1)
        best_costs = costs[rows, best_columns]
        if len(existing) < len(candidates):  # NEW_CLUSTER is a candidate
            new_costs = self.new_cluster_costs()
            use_new = new_costs < best_costs - tolerance
            best_costs = np.where(use_new, new_costs, best_costs)
        else:
            use_new = np.zeros(rows.size, dtype=bool)
        stay = best_costs >= current_costs - tolerance
        selection = BestResponseKernel.Selection()
        selection.candidates = existing
        selection.eligible = eligible
        selection.fallback_rows = np.nonzero(assigned & ~eligible)[0]
        selection.current_columns = current_columns
        selection.current_costs = current_costs
        selection.best_columns = best_columns
        selection.best_costs = best_costs
        selection.use_new = use_new
        selection.stay = stay
        selection.gains = np.where(
            eligible & ~stay, current_costs - best_costs, 0.0
        )
        return selection

    def _response_for_row(
        self, row: int, selection: "BestResponseKernel.Selection"
    ) -> BestResponse:
        current_cluster = selection.candidates[int(selection.current_columns[row])]
        current_cost = float(selection.current_costs[row])
        if selection.stay[row]:
            best_cluster = current_cluster
            best_cost = current_cost
        elif selection.use_new[row]:
            best_cluster = NEW_CLUSTER
            best_cost = float(selection.best_costs[row])
        else:
            best_cluster = selection.candidates[int(selection.best_columns[row])]
            best_cost = float(selection.best_costs[row])
        return BestResponse(
            peer_id=self._peer_order[row],
            current_cluster=current_cluster,
            best_cluster=best_cluster,
            current_cost=current_cost,
            best_cost=best_cost,
        )

    def _fallback_peers(self, selection: "BestResponseKernel.Selection") -> List[PeerId]:
        """The assigned peers *selection* does not settle, tracked ones first."""
        fallback = [self._peer_order[row] for row in selection.fallback_rows]
        # Assigned peers outside the recall matrix cannot be scored here;
        # they belong to the caller's per-peer path (where the cost model's
        # behaviour, including its errors, applies).
        fallback.extend(self._untracked_peers())
        return fallback

    def best_response_all(
        self,
        candidate_clusters: Sequence[ClusterId],
        *,
        tolerance: float = 1e-12,
    ) -> Tuple[Dict[PeerId, BestResponse], List[PeerId]]:
        """Best response of every assigned peer over *candidate_clusters*.

        Returns ``(responses, fallback_peers)``: *fallback_peers* lists the
        peers the kernel cannot score (in several clusters or in none of the
        candidates, or unknown to the recall matrix); the game evaluates
        those peer by peer.
        """
        selection = self.select(candidate_clusters, tolerance=tolerance)
        if selection is None:
            return {}, self.configuration.peer_ids()
        responses = {
            self._peer_order[row]: self._response_for_row(row, selection)
            for row in np.nonzero(selection.eligible)[0].tolist()
        }
        return responses, self._fallback_peers(selection)

    def best_deviation(
        self,
        candidate_clusters: Sequence[ClusterId],
        *,
        gain_tolerance: float = 1e-9,
        tolerance: float = 1e-12,
    ) -> Tuple[Optional[BestResponse], List[PeerId]]:
        """The single best deviation: ``max`` over ``(gain, repr(peer))``.

        This is the step rule of best-response dynamics; only the winning
        peer's :class:`BestResponse` is materialised, everything else stays
        in arrays.  Returns ``(winner_or_None, fallback_peers)``: fallback
        peers (outside the single-cluster regime) must be evaluated by the
        caller and compared against the winner.
        """
        selection = self.select(candidate_clusters, tolerance=tolerance)
        if selection is None:
            return None, self.configuration.peer_ids()
        fallback = self._fallback_peers(selection)
        gains = selection.gains
        deviating = np.nonzero(gains > gain_tolerance)[0]
        if deviating.size == 0:
            return None, fallback
        best_gain = gains[deviating].max()
        tied_rows = deviating[gains[deviating] == best_gain]
        # max() over (gain, repr(peer_id)) breaks gain ties by largest repr.
        winner_row = max(tied_rows, key=lambda row: repr(self._peer_order[row]))
        return self._response_for_row(int(winner_row), selection), fallback

    def detach(self) -> None:
        """Stop listening to the configuration (the kernel becomes read-only)."""
        self.configuration.remove_listener(self)

    def __repr__(self) -> str:
        return (
            f"BestResponseKernel(peers={len(self._peer_order)}, "
            f"clusters={len(self._cluster_order)}, backend={self.backend}, "
            f"stale={self.stale})"
        )
