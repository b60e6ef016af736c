"""Relocation strategies: the peer-local decision rules of Section 3.1.

At the end of every observation period ``T`` each peer runs its relocation
strategy to decide whether it should move to another cluster and how much it
(or the system) would gain.  A strategy produces a
:class:`RelocationProposal`; the reformulation protocol then gathers the
moving proposals, keeps the best one per cluster and serves them subject to
the lock rule.  A peer that stays has nothing to request, so the batch entry
point :meth:`RelocationStrategy.propose_all` returns the movers only.

Strategies can work in two modes:

* **exact** — the gain is computed from the cost model / recall model
  (global knowledge).  This is the mode used for the experiment-scale runs;
  under broadcast routing the observed quantities equal the exact ones, so
  nothing is lost.
* **observed** — the gain is computed from the peer's own
  :class:`~repro.peers.statistics.PeerStatistics`, i.e. from the cid-annotated
  results it saw during the period
  (:func:`~repro.traffic.simulator.observe_period`).  This is the faithful,
  purely local mode; ``Simulation`` and the maintenance loop observe a
  period before every protocol run in this mode.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import compress
from typing import Dict, Optional

import numpy as np

from repro.game.model import ClusterGame
from repro.peers.statistics import PeerStatistics

__all__ = ["RelocationProposal", "StrategyContext", "RelocationStrategy"]

PeerId = Hashable
ClusterId = Hashable


@dataclass(frozen=True)
class RelocationProposal:
    """A peer's proposal to relocate, produced by a strategy.

    Attributes
    ----------
    peer_id:
        The peer proposing to move.
    source_cluster:
        The cluster it currently belongs to.
    target_cluster:
        The cluster it wants to move to (possibly
        :data:`~repro.core.costs.NEW_CLUSTER`).
    gain:
        The strategy-specific gain of the move (``pgain`` for the selfish
        strategy, ``clgain`` for the altruistic one).  Larger is better.
    """

    peer_id: PeerId
    source_cluster: ClusterId
    target_cluster: ClusterId
    gain: float

    @property
    def is_move(self) -> bool:
        """``True`` when the proposal actually changes cluster."""
        return self.source_cluster != self.target_cluster


@dataclass
class StrategyContext:
    """Everything a strategy may consult when evaluating one peer.

    Attributes
    ----------
    game:
        The cluster game (cost model + current configuration).
    statistics:
        Optional per-peer observation trackers filled by
        :func:`~repro.traffic.simulator.observe_period`; required by the
        ``observed`` strategy mode.
    previous_costs:
        Optional mapping of peer id to its individual cost at the end of the
        *previous* period, used by the new-cluster creation rule ("its cost
        has significantly increased since the last time period").
    """

    game: ClusterGame
    statistics: Optional[Mapping[PeerId, PeerStatistics]] = None
    previous_costs: Optional[Mapping[PeerId, float]] = None


class RelocationStrategy:
    """Base class for relocation strategies."""

    name = "strategy"

    def propose(self, peer_id: PeerId, context: StrategyContext) -> Optional[RelocationProposal]:
        """Return the peer's relocation proposal.

        ``None`` means the peer stays, exactly like a zero-gain stay
        proposal (:meth:`_stay`): the protocol still counts its gain report.
        """
        raise NotImplementedError

    def propose_all(
        self, peer_ids: Iterable[PeerId], context: StrategyContext
    ) -> Dict[PeerId, RelocationProposal]:
        """The proposals of the peers among *peer_ids* that move.

        Returns ``{peer_id: proposal}`` for every peer whose proposal is a
        move; a peer that stays (a non-move proposal or ``None``) is left
        out.  The default implementation calls :meth:`propose` per peer; the
        selfish, altruistic and hybrid strategies override it in exact mode
        with array evaluations that select the same movers (verified by
        tests), because the reformulation protocol calls this every round at
        experiment scale.
        """
        return self._propose_each(peer_ids, context, {})

    def _movers_from_arrays(
        self,
        peer_ids: Iterable[PeerId],
        context: StrategyContext,
        *,
        peer_order: Sequence[PeerId],
        decided: np.ndarray,
        moving: np.ndarray,
        clusters: Sequence[ClusterId],
        sources: np.ndarray,
        targets: np.ndarray,
        gains: np.ndarray,
    ) -> Dict[PeerId, RelocationProposal]:
        """The movers of a batch evaluated over the peer rows *peer_order*.

        Row ``i`` of each array belongs to ``peer_order[i]``: ``decided[i]``
        says the arrays settle that peer, ``moving[i]`` that it moves from
        ``clusters[sources[i]]`` to ``clusters[targets[i]]`` with gain
        ``gains[i]``.  Only moving rows become proposals; every peer of
        *peer_ids* the arrays do not settle goes through :meth:`propose`.
        """
        peer_ids = list(peer_ids)
        wanted = set(peer_ids)
        movers: Dict[PeerId, RelocationProposal] = {}
        rows = np.flatnonzero(moving)
        for row, source, target, gain in zip(
            rows.tolist(), sources[rows].tolist(), targets[rows].tolist(), gains[rows].tolist()
        ):
            peer_id = peer_order[row]
            if peer_id in wanted:
                movers[peer_id] = RelocationProposal(
                    peer_id=peer_id,
                    source_cluster=clusters[source],
                    target_cluster=clusters[target],
                    gain=gain,
                )
        undecided = wanted.difference(compress(peer_order, decided.tolist()))
        if undecided:
            self._propose_each(
                [peer_id for peer_id in peer_ids if peer_id in undecided], context, movers
            )
        return movers

    def _propose_each(
        self,
        peer_ids: Iterable[PeerId],
        context: StrategyContext,
        movers: Dict[PeerId, RelocationProposal],
    ) -> Dict[PeerId, RelocationProposal]:
        """Add the moving :meth:`propose` results of *peer_ids* to *movers*."""
        for peer_id in peer_ids:
            proposal = self.propose(peer_id, context)
            if proposal is not None and proposal.is_move:
                movers[peer_id] = proposal
        return movers

    def _stay(self, peer_id: PeerId, context: StrategyContext) -> RelocationProposal:
        """A zero-gain proposal that keeps the peer where it is."""
        current = context.game.configuration.cluster_of(peer_id)
        return RelocationProposal(
            peer_id=peer_id, source_cluster=current, target_cluster=current, gain=0.0
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
