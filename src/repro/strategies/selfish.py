"""The selfish relocation strategy (Section 3.1.1).

A selfish peer tracks, per cluster, the individual cost it would incur if it
belonged to that cluster, and at the end of the period selects the cluster
with the minimum cost (Eq. 5).  The gain of the move is::

    pgain(p, c_new) = pcost(p, c_cur) - pcost(p, c_new)

In *exact* mode the per-cluster costs are evaluated with the cost model
(equivalently: the peer's best response in the game).  In *observed* mode
they are estimated from the cid-annotated results the peer received during
the period (its rows of the
:class:`~repro.peers.statistics.PeriodStatistics`): the recall term of the
cost for cluster ``c`` is approximated by ``1 - share of observed results
provided by c`` (with the peer's own results counted as reachable
regardless, since its content moves with it).  Both modes decide a batch in
one array pass over the game's kernel.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from typing import Dict, Optional

import numpy as np

from repro.core.costs import NEW_CLUSTER, CostModel
from repro.peers.statistics import PeriodStatistics, Rows
from repro.registry import register_strategy
from repro.strategies.base import (
    MoverBatch,
    RelocationProposal,
    RelocationStrategy,
    StrategyContext,
    observed_statistics,
)
from repro.errors import StrategyError

__all__ = ["SelfishStrategy"]

PeerId = Hashable
ClusterId = Hashable


@register_strategy("selfish")
class SelfishStrategy(RelocationStrategy):
    """Move to the cluster minimising the peer's own individual cost."""

    name = "selfish"

    def __init__(self, *, mode: str = "exact") -> None:
        if mode not in {"exact", "observed"}:
            raise StrategyError(f"mode must be 'exact' or 'observed', got {mode!r}")
        self.mode = mode

    # -- exact mode --------------------------------------------------------------

    def _propose_exact(
        self, peer_id: PeerId, context: StrategyContext
    ) -> Optional[RelocationProposal]:
        response = context.game.best_response(peer_id)
        if not response.wants_to_move:
            return self._stay(peer_id, context)
        return RelocationProposal(
            peer_id=peer_id,
            source_cluster=response.current_cluster,
            target_cluster=response.best_cluster,
            gain=response.gain,
        )

    # -- observed mode --------------------------------------------------------------

    @staticmethod
    def _observed_cost_table(
        statistics: PeriodStatistics,
        cost_model: CostModel,
        rows: Rows,
        cluster_order: Sequence[ClusterId],
        member: np.ndarray,
        sizes: Sequence[int],
    ) -> np.ndarray:
        """Estimated ``pcost`` of the statistics *rows* per cluster.

        ``member[k, j]`` says whether row ``k``'s peer belongs to
        ``cluster_order[j]``, whose size is ``sizes[j]``.  The cost of
        cluster ``c`` is ``alpha * theta(|c + p|) / |P| + (1 - share)``, the
        share being the fraction of the peer's observed results that ``c``
        returned.
        """
        shares, own_shares = statistics.recall_shares(cluster_order, rows)
        # The peer's own results are annotated with its current cluster; after
        # moving they would still be reachable.
        shares = np.where(member, shares, np.minimum(shares + own_shares[:, None], 1.0))
        staying = [cost_model.membership_cost([int(size)]) for size in sizes]
        joining = [cost_model.membership_cost([int(size) + 1]) for size in sizes]
        return np.where(member, staying, joining) + (1.0 - shares)

    def observed_costs(self, peer_id: PeerId, context: StrategyContext) -> Dict[ClusterId, float]:
        """Estimated ``pcost(p, c)`` per non-empty cluster from the period's observations."""
        statistics = observed_statistics(context, peer_id)
        configuration = context.game.configuration
        cluster_order = configuration.nonempty_clusters()
        current_cluster = configuration.cluster_of(peer_id)
        costs = self._observed_cost_table(
            statistics,
            context.game.cost_model,
            [statistics.peer_index[peer_id]],
            cluster_order,
            np.array([[cluster_id == current_cluster for cluster_id in cluster_order]]),
            [configuration.size(cluster_id) for cluster_id in cluster_order],
        )
        return dict(zip(cluster_order, costs[0].tolist()))

    def _propose_observed(
        self, peer_id: PeerId, context: StrategyContext
    ) -> Optional[RelocationProposal]:
        costs = self.observed_costs(peer_id, context)
        current_cluster = context.game.configuration.cluster_of(peer_id)
        # The first minimum in repr order, as the batch's argmin picks it.
        best_cluster = min(costs, key=costs.__getitem__)
        gain = costs[current_cluster] - costs[best_cluster]
        if best_cluster == current_cluster or gain <= 0.0:
            return self._stay(peer_id, context)
        return RelocationProposal(
            peer_id=peer_id,
            source_cluster=current_cluster,
            target_cluster=best_cluster,
            gain=gain,
        )

    def _propose_all_observed(
        self, peer_ids: Iterable[PeerId], context: StrategyContext
    ) -> MoverBatch:
        kernel = context.game.kernel
        cluster_order = context.game.configuration.nonempty_clusters()
        if kernel is None or not cluster_order:
            return super().propose_all(peer_ids, context)
        membership, sizes = kernel.membership_columns(cluster_order)
        member = membership == 1.0
        decided = membership.sum(axis=1) == 1.0
        current = np.where(decided, np.argmax(membership, axis=1), 0)
        statistics = observed_statistics(context)
        costs = self._observed_cost_table(
            statistics, context.game.cost_model, slice(None), cluster_order, member, sizes
        )
        rows = np.arange(current.size)
        best = np.argmin(costs, axis=1)
        gains = costs[rows, current] - costs[rows, best]
        return self._movers_from_arrays(
            peer_ids,
            context,
            decided=decided,
            moving=decided & (best != current) & (gains > 0.0),
            clusters=cluster_order,
            sources=current,
            targets=best,
            gains=gains,
        )

    # -- dispatch -----------------------------------------------------------------------

    def propose(self, peer_id: PeerId, context: StrategyContext) -> Optional[RelocationProposal]:
        if self.mode == "exact":
            return self._propose_exact(peer_id, context)
        return self._propose_observed(peer_id, context)

    def propose_all(self, peer_ids: Iterable[PeerId], context: StrategyContext) -> MoverBatch:
        """The movers among *peer_ids*, from one array pass over the game's kernel.

        Exact mode scores every peer in one vectorized selection over the
        game's candidate clusters; observed mode evaluates the observed
        costs of every peer against every non-empty cluster in one table.
        Either keeps only the moving rows.  The peers the arrays cannot
        settle (outside the single-cluster regime or unknown to the recall
        matrix) and every peer of a game without a kernel go through
        :meth:`propose`.
        """
        if self.mode == "observed":
            return self._propose_all_observed(peer_ids, context)
        selection = context.game.selection()
        if selection is None:
            return super().propose_all(peer_ids, context)
        candidates = selection.candidates
        return self._movers_from_arrays(
            peer_ids,
            context,
            decided=selection.eligible,
            moving=selection.eligible & ~selection.stay,
            clusters=[*candidates, NEW_CLUSTER],
            sources=selection.current_columns,
            targets=np.where(selection.use_new, len(candidates), selection.best_columns),
            gains=selection.current_costs - selection.best_costs,
        )

    def __repr__(self) -> str:
        return f"SelfishStrategy(mode={self.mode!r})"
