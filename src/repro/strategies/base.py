"""Relocation strategies: the peer-local decision rules of Section 3.1.

At the end of every observation period ``T`` each peer runs its relocation
strategy to decide whether it should move to another cluster and how much it
(or the system) would gain.  A strategy produces a
:class:`RelocationProposal`; the reformulation protocol then gathers the
moving proposals, keeps the best one per cluster and serves them subject to
the lock rule.  A peer that stays has nothing to request, so the batch entry
point :meth:`RelocationStrategy.propose_all` returns the movers only, as a
:class:`MoverBatch`: the movers the strategy decided in arrays stay arrays,
and a :class:`RelocationProposal` is built only for a mover that is read
(the gather reads at most one per cluster).

Strategies can work in two modes:

* **exact** — the gain is computed from the cost model / recall model
  (global knowledge).  This is the mode used for the experiment-scale runs;
  under broadcast routing the observed quantities equal the exact ones, so
  nothing is lost.
* **observed** — the gain is computed from the peer's row of the period's
  :class:`~repro.peers.statistics.PeriodStatistics`, i.e. from the
  cid-annotated results it saw during the period
  (:func:`~repro.traffic.simulator.observe_period`).  This is the faithful,
  purely local mode; ``Simulation`` and the maintenance loop observe a
  period before every protocol run in this mode.

Both modes decide a batch in the same array pass over the game's kernel;
only a game without a kernel goes peer by peer.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.costs import NEW_CLUSTER
from repro.errors import StrategyError
from repro.game.model import ClusterGame
from repro.peers.statistics import PeriodStatistics

__all__ = ["RelocationProposal", "MoverBatch", "StrategyContext", "RelocationStrategy"]

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


_NO_ROWS = np.zeros(0, dtype=np.intp)
_NO_ROWS.flags.writeable = False
_NO_GAINS = np.zeros(0, dtype=np.float64)
_NO_GAINS.flags.writeable = False


class MoverBatch(Mapping):
    """The movers of one :meth:`RelocationStrategy.propose_all` call.

    A read-only ``Mapping[PeerId, RelocationProposal]`` with two parts:

    * **array rows** — mover ``k`` is the peer ``peer_order[rows[k]]`` (the
      recall matrix's rows, ascending), moving from
      ``clusters[sources[k]]`` to ``clusters[targets[k]]`` with the float64
      gain ``gains[k]``; ``repr_rank[row]`` ranks a row's peer id in
      ``repr`` order.  A row becomes a :class:`RelocationProposal` only when
      it is read.
    * **per-peer entries** — ``proposals`` holds the proposals of the peers
      the arrays cannot settle: peers in several clusters and peers unknown
      to the recall matrix.

    It iterates like the dict it stands for: array rows first, in row
    order, then the per-peer entries in insertion order.
    """

    __slots__ = (
        "proposals",
        "peer_order",
        "repr_rank",
        "clusters",
        "rows",
        "sources",
        "targets",
        "gains",
        "_positions",
    )

    def __init__(
        self,
        proposals: Optional[Dict[PeerId, RelocationProposal]] = None,
        *,
        peer_order: Sequence[PeerId] = (),
        repr_rank: np.ndarray = _NO_ROWS,
        clusters: Sequence[ClusterId] = (),
        rows: np.ndarray = _NO_ROWS,
        sources: np.ndarray = _NO_ROWS,
        targets: np.ndarray = _NO_ROWS,
        gains: np.ndarray = _NO_GAINS,
    ) -> None:
        self.proposals: Dict[PeerId, RelocationProposal] = {} if proposals is None else proposals
        self.peer_order = peer_order
        self.repr_rank = repr_rank
        self.clusters = clusters
        self.rows = rows
        self.sources = sources
        self.targets = targets
        self.gains = gains
        self._positions: Optional[Dict[PeerId, int]] = None

    @classmethod
    def of(cls, movers: Mapping[PeerId, RelocationProposal]) -> "MoverBatch":
        """*movers* itself when it is a batch, else a batch of its per-peer entries."""
        if isinstance(movers, cls):
            return movers
        return cls(dict(movers))

    # -- reading rows --------------------------------------------------------------

    def peer_at(self, position: int) -> PeerId:
        """The peer of array mover *position*."""
        return self.peer_order[self.rows[position]]

    def proposal_at(self, position: int) -> RelocationProposal:
        """Array mover *position* as a :class:`RelocationProposal`."""
        return RelocationProposal(
            peer_id=self.peer_at(position),
            source_cluster=self.clusters[self.sources[position]],
            target_cluster=self.clusters[self.targets[position]],
            gain=float(self.gains[position]),
        )

    def _row_positions(self) -> Dict[PeerId, int]:
        if self._positions is None:
            peer_order = self.peer_order
            self._positions = {
                peer_order[row]: position for position, row in enumerate(self.rows.tolist())
            }
        return self._positions

    # -- the cluster-creation precondition ------------------------------------------

    def creating(self) -> Tuple[List[int], List[PeerId]]:
        """The movers that target :data:`~repro.core.costs.NEW_CLUSTER`.

        Returns their array positions and their per-peer entries' peer ids.
        """
        positions: List[int] = []
        if self.rows.size and NEW_CLUSTER in self.clusters:
            column = self.clusters.index(NEW_CLUSTER)
            positions = np.flatnonzero(self.targets == column).tolist()
        peer_ids = [
            peer_id
            for peer_id, proposal in self.proposals.items()
            if proposal.target_cluster == NEW_CLUSTER
        ]
        return positions, peer_ids

    def without(self, positions: Sequence[int], peer_ids: Iterable[PeerId]) -> "MoverBatch":
        """A batch without the array movers at *positions* and the entries of *peer_ids*."""
        keep = np.ones(self.rows.size, dtype=bool)
        keep[positions] = False
        dropped = set(peer_ids)
        return MoverBatch(
            {
                peer_id: proposal
                for peer_id, proposal in self.proposals.items()
                if peer_id not in dropped
            },
            peer_order=self.peer_order,
            repr_rank=self.repr_rank,
            clusters=self.clusters,
            rows=self.rows[keep],
            sources=self.sources[keep],
            targets=self.targets[keep],
            gains=self.gains[keep],
        )

    # -- Mapping -----------------------------------------------------------------------

    def __len__(self) -> int:
        return self.rows.size + len(self.proposals)

    def __iter__(self) -> Iterator[PeerId]:
        return chain(map(self.peer_order.__getitem__, self.rows.tolist()), self.proposals)

    def __contains__(self, peer_id: object) -> bool:
        return peer_id in self.proposals or peer_id in self._row_positions()

    def __getitem__(self, peer_id: PeerId) -> RelocationProposal:
        proposal = self.proposals.get(peer_id)
        if proposal is not None:
            return proposal
        return self.proposal_at(self._row_positions()[peer_id])

    def __repr__(self) -> str:
        return f"MoverBatch(rows={self.rows.size}, proposals={len(self.proposals)})"


@dataclass
class StrategyContext:
    """Everything a strategy may consult when evaluating one peer.

    Attributes
    ----------
    game:
        The cluster game (cost model + current configuration).
    statistics:
        Optional :class:`~repro.peers.statistics.PeriodStatistics` returned
        by :func:`~repro.traffic.simulator.observe_period`; required by the
        ``observed`` strategy mode.
    previous_costs:
        Optional mapping of peer id to its individual cost at the end of the
        *previous* period, used by the new-cluster creation rule ("its cost
        has significantly increased since the last time period").
    """

    game: ClusterGame
    statistics: Optional[PeriodStatistics] = None
    previous_costs: Optional[Mapping[PeerId, float]] = None


def observed_statistics(
    context: StrategyContext, peer_id: Optional[PeerId] = None
) -> PeriodStatistics:
    """The period statistics an ``observed`` strategy decides from.

    With *peer_id*, that peer must have been observed; without, the batch
    path reads whole arrays, so their rows must be the game's recall-matrix
    rows.  Raises :class:`~repro.errors.StrategyError` otherwise.
    """
    statistics = context.statistics
    if peer_id is not None:
        if statistics is None or peer_id not in statistics:
            raise StrategyError(f"observed mode requires period statistics for peer {peer_id!r}")
        return statistics
    if statistics is None:
        raise StrategyError("observed mode requires period statistics")
    if statistics.peer_order != context.game.cost_model.matrix.peer_order:
        raise StrategyError(
            "period statistics must be observed over the peers of the game's recall matrix"
        )
    return statistics


class RelocationStrategy:
    """Base class for relocation strategies."""

    name = "strategy"

    def propose(self, peer_id: PeerId, context: StrategyContext) -> Optional[RelocationProposal]:
        """Return the peer's relocation proposal.

        ``None`` means the peer stays, exactly like a zero-gain stay
        proposal (:meth:`_stay`): the protocol still counts its gain report.
        """
        raise NotImplementedError

    def propose_all(self, peer_ids: Iterable[PeerId], context: StrategyContext) -> MoverBatch:
        """The proposals of the peers among *peer_ids* that move, as a :class:`MoverBatch`.

        Every peer whose proposal is a move is in the batch; a peer that
        stays (a non-move proposal or ``None``) is left out.  The default
        implementation calls :meth:`propose` per peer, so its batch holds
        per-peer entries only; the selfish, altruistic and hybrid
        strategies override it, in both modes, with array evaluations over
        the game's kernel that select the same movers (verified by tests)
        and keep them as array rows, because the reformulation protocol
        calls this every round at experiment scale.
        """
        return MoverBatch(self._propose_each(peer_ids, context))

    def _movers_from_arrays(
        self,
        peer_ids: Iterable[PeerId],
        context: StrategyContext,
        *,
        decided: np.ndarray,
        moving: np.ndarray,
        clusters: Sequence[ClusterId],
        sources: np.ndarray,
        targets: np.ndarray,
        gains: np.ndarray,
    ) -> MoverBatch:
        """The movers of a batch evaluated over the recall matrix's peer rows.

        Row ``i`` of each array belongs to the matrix's ``peer_order[i]``:
        ``decided[i]`` says the arrays settle that peer, ``moving[i]`` that
        it moves from ``clusters[sources[i]]`` to ``clusters[targets[i]]``
        with gain ``gains[i]``.  The moving rows of *peer_ids* become the
        batch's array rows; every peer of *peer_ids* the arrays do not
        settle goes through :meth:`propose`.
        """
        matrix = context.game.cost_model.matrix
        peer_ids = list(peer_ids)
        rows = np.fromiter(
            map(matrix.peer_index.get, peer_ids, repeat(-1)), dtype=np.intp, count=len(peer_ids)
        )
        known = rows >= 0
        known_rows = rows[known]
        wanted = np.zeros(decided.size, dtype=bool)
        wanted[known_rows] = True
        settled = np.zeros(rows.size, dtype=bool)
        settled[known] = decided[known_rows]
        undecided = [peer_ids[position] for position in np.flatnonzero(~settled).tolist()]
        movers = np.flatnonzero(moving & wanted)
        return MoverBatch(
            self._propose_each(undecided, context),
            peer_order=matrix.peer_order,
            repr_rank=matrix.repr_rank,
            clusters=clusters,
            rows=movers,
            sources=sources[movers],
            targets=targets[movers],
            gains=np.asarray(gains[movers], dtype=np.float64),
        )

    def _propose_each(
        self, peer_ids: Iterable[PeerId], context: StrategyContext
    ) -> Dict[PeerId, RelocationProposal]:
        """The moving :meth:`propose` results of *peer_ids*, in their order."""
        movers: Dict[PeerId, RelocationProposal] = {}
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
