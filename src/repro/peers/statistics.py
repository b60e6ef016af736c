"""One observation period ``T``, as integer arrays over every peer.

The relocation strategies of the paper are driven by *observed* quantities,
not by global knowledge (Section 3.1):

* Every query result returned to a peer is annotated with the ``cid`` of the
  cluster that provided it.  Over a period ``T`` a peer therefore knows how
  many of its results each cluster returned — what the **selfish** strategy
  needs.
* Symmetrically, a peer knows how many results it *served* to queries issued
  from each cluster — the **altruistic** strategy's ``contribution``
  (Eq. 6).

:class:`PeriodStatistics` holds both for all peers at once;
:func:`~repro.traffic.simulator.observe_period` fills it for one period and
the strategies read it, a whole batch of peers or a single row at a time.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple, Union

import numpy as np

__all__ = ["PeriodStatistics", "shares_of"]

PeerId = Hashable
ClusterId = Hashable
#: Row positions into the arrays, or ``slice(None)`` for every row.
Rows = Union[slice, Sequence[int]]


def shares_of(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``counts / totals`` as float64 (broadcast), 0 where the total is 0."""
    return np.divide(
        counts,
        totals,
        out=np.zeros(np.broadcast_shapes(counts.shape, totals.shape)),
        where=totals > 0,
    )


@dataclass(frozen=True, eq=False)
class PeriodStatistics:
    """The cid-annotated result counts of one period, for every peer.

    Rows follow :attr:`peer_order`, the network's ``peer_ids()`` (which is
    the recall matrix's ``peer_order``); columns follow
    :attr:`cluster_order`, the clusters that were non-empty when the period
    was observed, in ``repr`` order.  All arrays are int64 and read-only:

    * ``received[i, c]`` — the results peer ``i``'s queries got from cluster ``c``;
    * ``served[i, c]`` — the results peer ``i`` served to queries issued from
      cluster ``c``;
    * ``issued[i]`` — the workload occurrences peer ``i`` routed;
    * ``own[i]`` — the results ``i``'s own content holds for ``i``'s own workload.

    Readers name the clusters they ask about; a cluster missing from the
    observation (one that was empty then) reads 0.
    """

    peer_order: List[PeerId]
    cluster_order: List[ClusterId]
    received: np.ndarray
    served: np.ndarray
    issued: np.ndarray
    own: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.received, self.served, self.issued, self.own):
            array.flags.writeable = False

    @cached_property
    def peer_index(self) -> Dict[PeerId, int]:
        """Row of every observed peer."""
        return {peer_id: row for row, peer_id in enumerate(self.peer_order)}

    @cached_property
    def _column_index(self) -> Dict[ClusterId, int]:
        return {cluster_id: column for column, cluster_id in enumerate(self.cluster_order)}

    def __contains__(self, peer_id: object) -> bool:
        return peer_id in self.peer_index

    def _in_clusters(
        self, table: np.ndarray, cluster_order: Sequence[ClusterId], rows: Rows
    ) -> np.ndarray:
        """*table*'s *rows* by *cluster_order*; a cluster not observed reads 0."""
        # The appended zero column stands for every cluster not observed.
        unobserved = len(self.cluster_order)
        columns = [self._column_index.get(cluster_id, unobserved) for cluster_id in cluster_order]
        return np.pad(table[rows], ((0, 0), (0, 1)))[:, columns]

    def recall_shares(
        self, cluster_order: Sequence[ClusterId], rows: Rows = slice(None)
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The selfish strategy's observations (Section 3.1.1) of *rows*.

        Returns ``(shares, own_shares)``: ``shares[k, j]`` is the fraction of
        all results row ``k`` received that came from ``cluster_order[j]``,
        and ``own_shares[k]`` the fraction its own content holds, capped at
        1.  Both are 0 for a peer that received nothing.
        """
        totals = self.received[rows].sum(axis=1)
        return (
            shares_of(self._in_clusters(self.received, cluster_order, rows), totals[:, None]),
            np.minimum(shares_of(self.own[rows], totals), 1.0),
        )

    def contributions(
        self, cluster_order: Sequence[ClusterId], rows: Rows = slice(None)
    ) -> np.ndarray:
        """``contribution(p, c)`` (Eq. 6) of *rows* to *cluster_order*.

        The share of everything a peer served that went to queries issued
        from each cluster; 0 for a peer that served nothing.
        """
        totals = self.served[rows].sum(axis=1)[:, None]
        return shares_of(self._in_clusters(self.served, cluster_order, rows), totals)

    def __repr__(self) -> str:
        return (
            f"PeriodStatistics(peers={len(self.peer_order)}, "
            f"clusters={len(self.cluster_order)}, issued={int(self.issued.sum())})"
        )
