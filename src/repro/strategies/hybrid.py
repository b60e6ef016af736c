"""Hybrid relocation strategy (the extension sketched in Section 6).

The paper's future-work section suggests "a hybrid strategy taking into
consideration both the individual cost and the contribution measure".  This
strategy scores every candidate cluster with a convex combination of the two
gains::

    score(c) = weight * pgain(p, c) + (1 - weight) * clgain(p, c)

where ``pgain(p, c) = pcost(p, c_cur) - pcost(p, c)`` and ``clgain`` is the
altruistic cluster gain of :class:`~repro.strategies.altruistic.AltruisticStrategy`.
``weight = 1`` recovers the selfish strategy, ``weight = 0`` an altruistic
variant that evaluates every cluster (not only the top-contribution one).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Dict, Optional

import numpy as np

from repro.errors import StrategyError
from repro.registry import register_strategy
from repro.strategies.altruistic import AltruisticStrategy
from repro.strategies.base import (
    MoverBatch,
    RelocationProposal,
    RelocationStrategy,
    StrategyContext,
)

__all__ = ["HybridStrategy"]

PeerId = Hashable
ClusterId = Hashable


@register_strategy("hybrid")
class HybridStrategy(RelocationStrategy):
    """Blend of the selfish and altruistic criteria with a configurable weight."""

    name = "hybrid"

    def __init__(self, *, weight: float = 0.5, mode: str = "exact") -> None:
        if not 0.0 <= weight <= 1.0:
            raise StrategyError(f"weight must be in [0, 1], got {weight}")
        self.weight = weight
        self._altruistic = AltruisticStrategy(mode=mode)
        self.mode = mode

    def scores(self, peer_id: PeerId, context: StrategyContext) -> Dict[ClusterId, float]:
        """Combined score of every candidate (non-empty) cluster."""
        game = context.game
        configuration = game.configuration
        current_cluster = configuration.cluster_of(peer_id)
        current_cost = game.current_cost(peer_id)
        contributions = self._altruistic.contributions(peer_id, context)

        scores: Dict[ClusterId, float] = {}
        for cluster_id in configuration.nonempty_clusters():
            if cluster_id == current_cluster:
                continue
            selfish_gain = current_cost - game.prospective_cost(peer_id, cluster_id)
            altruistic_gain = self._altruistic.cluster_gain(
                peer_id,
                cluster_id,
                context,
                source_cluster=current_cluster,
                contributions=contributions,
            )
            scores[cluster_id] = self.weight * selfish_gain + (1.0 - self.weight) * altruistic_gain
        return scores

    def propose(self, peer_id: PeerId, context: StrategyContext) -> Optional[RelocationProposal]:
        scores = self.scores(peer_id, context)
        if not scores:
            return self._stay(peer_id, context)
        best_cluster = max(sorted(scores, key=repr), key=lambda cluster_id: scores[cluster_id])
        best_score = scores[best_cluster]
        if best_score <= 0.0:
            return self._stay(peer_id, context)
        return RelocationProposal(
            peer_id=peer_id,
            source_cluster=context.game.configuration.cluster_of(peer_id),
            target_cluster=best_cluster,
            gain=best_score,
        )

    def propose_all(self, peer_ids: Iterable[PeerId], context: StrategyContext) -> MoverBatch:
        """The movers among *peer_ids*, from the kernel and contribution arrays.

        Scores every peer against every non-empty cluster in one shot: the
        selfish gains come from the kernel's prospective cost table, the
        altruistic gains from the vectorised contribution matrix of either
        mode, combined in place in the cost table.  A game without a kernel
        goes peer by peer; decisions match :meth:`propose` (verified by the
        test suite).
        """
        game = context.game
        kernel = game.kernel
        cluster_order = game.configuration.nonempty_clusters()
        if kernel is None or not cluster_order:
            return super().propose_all(peer_ids, context)
        scores = kernel.cost_table(cluster_order)
        contributions, join_increases, leave_decreases, current = self._altruistic.batch_state(
            context, cluster_order
        )
        rows = np.arange(current.size)
        decided = current >= 0
        current = np.where(decided, current, 0)
        # weight * pgain, with pgain = pcost(current) - pcost(candidate) ...
        np.subtract(scores[rows, current][:, None], scores, out=scores)
        scores *= self.weight
        # ... plus (1 - weight) * clgain, exactly as AltruisticStrategy.cluster_gain.
        contributions -= contributions[rows, current][:, None]
        contributions -= join_increases[None, :] - leave_decreases[current][:, None]
        contributions *= 1.0 - self.weight
        scores += contributions
        scores[rows, current] = -np.inf
        best = np.argmax(scores, axis=1)
        best_scores = scores[rows, best]
        return self._movers_from_arrays(
            peer_ids,
            context,
            decided=decided,
            moving=decided & (best_scores > 0.0),
            clusters=cluster_order,
            sources=current,
            targets=best,
            gains=best_scores,
        )

    def __repr__(self) -> str:
        return f"HybridStrategy(weight={self.weight}, mode={self.mode!r})"
