"""The selfish relocation strategy (Section 3.1.1).

A selfish peer tracks, per cluster, the individual cost it would incur if it
belonged to that cluster, and at the end of the period selects the cluster
with the minimum cost (Eq. 5).  The gain of the move is::

    pgain(p, c_new) = pcost(p, c_cur) - pcost(p, c_new)

In *exact* mode the per-cluster costs are evaluated with the cost model
(equivalently: the peer's best response in the game).  In *observed* mode
they are estimated from the cid-annotated results the peer received during
the period: the recall term of the cost for cluster ``c`` is approximated by
``1 - share of observed results provided by c`` (with the peer's own results
counted as reachable regardless, since its content moves with it).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Dict, Optional

import numpy as np

from repro.core.costs import NEW_CLUSTER
from repro.registry import register_strategy
from repro.strategies.base import (
    MoverBatch,
    RelocationProposal,
    RelocationStrategy,
    StrategyContext,
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

    def observed_costs(self, peer_id: PeerId, context: StrategyContext) -> Dict[ClusterId, float]:
        """Estimated ``pcost(p, c)`` per cluster from the period's observations."""
        if context.statistics is None or peer_id not in context.statistics:
            raise StrategyError(
                f"observed mode requires period statistics for peer {peer_id!r}"
            )
        configuration = context.game.configuration
        cost_model = context.game.cost_model
        tracker = context.statistics[peer_id].recall_tracker
        shares = tracker.observed_recall_by_cluster()
        current_cluster = configuration.cluster_of(peer_id)
        own_share = 0.0
        total_results = tracker.total_results()
        if total_results:
            own_results = sum(
                cost_model.recall_model.result(query, peer_id) * count
                for query, count in cost_model.peer_workload(peer_id).items()
            )
            own_share = min(own_results / total_results, 1.0)

        costs: Dict[ClusterId, float] = {}
        for cluster_id in configuration.nonempty_clusters():
            members = set(configuration.members(cluster_id))
            members.add(peer_id)
            membership = cost_model.membership_cost([len(members)])
            observed_share = shares.get(cluster_id, 0.0)
            if cluster_id != current_cluster:
                # The peer's own results are currently annotated with its own
                # cluster; after moving they would still be reachable.
                observed_share = min(observed_share + own_share, 1.0)
            costs[cluster_id] = membership + (1.0 - observed_share)
        return costs

    def _propose_observed(
        self, peer_id: PeerId, context: StrategyContext
    ) -> Optional[RelocationProposal]:
        costs = self.observed_costs(peer_id, context)
        if not costs:
            return self._stay(peer_id, context)
        current_cluster = context.game.configuration.cluster_of(peer_id)
        best_cluster = min(sorted(costs, key=repr), key=lambda cluster_id: costs[cluster_id])
        current_cost = costs.get(current_cluster)
        if current_cost is None or best_cluster == current_cluster:
            return self._stay(peer_id, context)
        gain = current_cost - costs[best_cluster]
        if gain <= 0.0:
            return self._stay(peer_id, context)
        return RelocationProposal(
            peer_id=peer_id,
            source_cluster=current_cluster,
            target_cluster=best_cluster,
            gain=gain,
        )

    # -- dispatch -----------------------------------------------------------------------

    def propose(self, peer_id: PeerId, context: StrategyContext) -> Optional[RelocationProposal]:
        if self.mode == "exact":
            return self._propose_exact(peer_id, context)
        return self._propose_observed(peer_id, context)

    def propose_all(self, peer_ids: Iterable[PeerId], context: StrategyContext) -> MoverBatch:
        """The movers among *peer_ids*, straight from the game's selection arrays.

        Exact mode on a game with a kernel scores every peer in one
        vectorized selection over the game's candidate clusters and keeps
        only the moving rows; the peers the kernel cannot score (outside
        the single-cluster regime or unknown to the recall matrix), every
        peer of a game without a kernel, and every other mode go through
        :meth:`propose`.
        """
        selection = context.game.selection() if self.mode == "exact" else None
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
