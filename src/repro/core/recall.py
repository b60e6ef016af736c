"""Recall model: the importance ``r(q, p)`` of a peer for a query.

The paper characterises the importance of a peer ``p`` in the evaluation of a
query ``q`` as the recall achieved when ``q`` is evaluated solely on ``p``::

    r(q, p) = result(q, p) / sum over all peers pk of result(q, pk)

:class:`RecallModel` computes these quantities against a snapshot of each
peer's content.  Content is provided through *providers*: any object with a
``result_count(query) -> int`` method (both :class:`~repro.core.index.InvertedIndex`
and :class:`~repro.core.documents.DocumentCollection` satisfy this through a
thin adapter).  The model caches per-query totals and invalidates the cache
explicitly when content changes, because cost evaluation asks for the same
queries repeatedly while the reformulation protocol runs.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from itertools import chain, repeat
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.documents import DocumentCollection
from repro.core.index import InvertedIndex
from repro.core.queries import Query
from repro.errors import UnknownPeerError

__all__ = ["ResultProvider", "RecallModel"]

PeerId = Hashable


class ResultProvider:
    """Adapter exposing ``result_count(query)`` over arbitrary peer content.

    Accepts an :class:`InvertedIndex`, a :class:`DocumentCollection`, or any
    object already providing ``result_count``.
    """

    def __init__(self, content: object) -> None:
        #: The wrapped content object (read-only; lets bulk evaluation paths
        #: use content-specific fast paths such as inverted-index posting sizes).
        self.content = content
        if isinstance(content, DocumentCollection):
            self._count: Callable[[Query], int] = lambda query: content.match_count(query.attributes)
        elif hasattr(content, "result_count"):
            self._count = content.result_count  # type: ignore[assignment]
        else:
            raise TypeError(
                "content must be a DocumentCollection, an InvertedIndex, or expose result_count()"
            )

    def result_count(self, query: Query) -> int:
        """Number of items matching *query* in the wrapped content."""
        return int(self._count(query))


class RecallModel:
    """Computes ``result(q, p)``, total results and ``r(q, p)`` over a peer population.

    Parameters
    ----------
    providers:
        Mapping from peer id to that peer's content (anything accepted by
        :class:`ResultProvider`).
    """

    def __init__(self, providers: Mapping[PeerId, object]) -> None:
        self._providers: Dict[PeerId, ResultProvider] = {
            peer_id: ResultProvider(content) for peer_id, content in providers.items()
        }
        self._result_cache: Dict[tuple, int] = {}
        self._total_cache: Dict[Query, int] = {}
        self._peer_order: Optional[List[PeerId]] = None

    # -- population management --------------------------------------------

    @property
    def peer_ids(self) -> List[PeerId]:
        """The peer identifiers known to the model, in deterministic order.

        The repr-sorted order is computed once per population change instead
        of on every access (the cost model reads this inside its global-cost
        loops).  Callers receive a copy, so mutating the returned list never
        corrupts the cache.
        """
        if self._peer_order is None:
            self._peer_order = sorted(self._providers, key=repr)
        return list(self._peer_order)

    def set_content(self, peer_id: PeerId, content: object) -> None:
        """Replace (or register) the content of *peer_id* and invalidate caches."""
        self._providers[peer_id] = ResultProvider(content)
        self.invalidate()

    def remove_peer(self, peer_id: PeerId) -> None:
        """Forget *peer_id* (peer departure) and invalidate caches."""
        if peer_id not in self._providers:
            raise UnknownPeerError(peer_id)
        del self._providers[peer_id]
        self.invalidate()

    def invalidate(self) -> None:
        """Drop all cached counts (call after any content or population change)."""
        self._result_cache.clear()
        self._total_cache.clear()
        self._peer_order = None

    # -- core quantities ----------------------------------------------------

    def result(self, query: Query, peer_id: PeerId) -> int:
        """``result(q, p)``: number of matching items held by *peer_id*."""
        provider = self._providers.get(peer_id)
        if provider is None:
            raise UnknownPeerError(peer_id)
        key = (query, peer_id)
        cached = self._result_cache.get(key)
        if cached is None:
            cached = provider.result_count(query)
            self._result_cache[key] = cached
        return cached

    def total_results(self, query: Query) -> int:
        """Total number of matching items across all peers."""
        cached = self._total_cache.get(query)
        if cached is None:
            cached = sum(self.result(query, peer_id) for peer_id in self._providers)
            self._total_cache[query] = cached
        return cached

    def recall(self, query: Query, peer_id: PeerId) -> float:
        """``r(q, p)``; defined as 0 when no peer holds any result for *query*."""
        total = self.total_results(query)
        if total == 0:
            return 0.0
        return self.result(query, peer_id) / total

    def recall_vector(self, query: Query) -> Dict[PeerId, float]:
        """``r(q, p)`` for every peer ``p``; the values sum to 1 (or 0 if no results exist)."""
        total = self.total_results(query)
        if total == 0:
            return {peer_id: 0.0 for peer_id in self._providers}
        return {peer_id: self.result(query, peer_id) / total for peer_id in self._providers}

    def result_count_matrix(
        self, queries: Sequence[Query], peer_order: Sequence[PeerId]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bulk ``result(q, p)`` counts: ``(counts, totals)``.

        ``counts[k, j]`` is ``result(queries[k], peer_order[j])`` (0 for peer
        ids the model does not know, mirroring :meth:`recall_vector`'s 0.0
        default); ``totals[k]`` is ``total_results(queries[k])`` summed over
        *all* providers, known or not listed in *peer_order*.  Single-attribute
        queries against inverted-index content are answered from posting-list
        sizes — one dict scan per peer instead of a posting intersection per
        (query, peer) pair — which is what makes recall-table construction
        O(total postings) instead of O(|Q| * |P|).  Every indexed peer's
        posting sizes are gathered at once and stored with one assignment.
        """
        num_queries = len(queries)
        single_attribute: Dict[str, int] = {}
        slow_rows: List[int] = []
        for row, query in enumerate(queries):
            attributes = list(query.attributes)
            if len(attributes) == 1:
                single_attribute[attributes[0]] = row
            else:
                slow_rows.append(row)
        columns = {peer_id: column for column, peer_id in enumerate(peer_order)}

        def table(providers: List[Optional[ResultProvider]]) -> np.ndarray:
            counts = np.zeros((num_queries, len(providers)), dtype=np.int64)
            indexed = [
                column
                for column, provider in enumerate(providers)
                if provider is not None and isinstance(provider.content, InvertedIndex)
            ]
            postings = [providers[column].content.posting_sizes() for column in indexed]
            rows = np.fromiter(
                map(single_attribute.get, chain.from_iterable(postings), repeat(-1)),
                dtype=np.intp,
            )
            sizes = np.fromiter(
                chain.from_iterable(posting.values() for posting in postings), dtype=np.int64
            )
            cells = np.repeat(
                np.array(indexed, dtype=np.intp), [len(posting) for posting in postings]
            )
            asked = rows >= 0
            counts[rows[asked], cells[asked]] = sizes[asked]
            for column, provider in enumerate(providers):
                if provider is None:
                    continue
                evaluated = (
                    slow_rows if isinstance(provider.content, InvertedIndex) else range(num_queries)
                )
                for row in evaluated:
                    counts[row, column] = provider.result_count(queries[row])
            return counts

        counts = table([self._providers.get(peer_id) for peer_id in peer_order])
        totals = counts.sum(axis=1)
        extra = [
            provider for peer_id, provider in self._providers.items() if peer_id not in columns
        ]
        if extra:
            totals = totals + table(extra).sum(axis=1)
        return counts, totals

    def group_recall(self, query: Query, peer_ids: Iterable[PeerId]) -> float:
        """Recall obtained by evaluating *query* only on the peers in *peer_ids*."""
        members = set(peer_ids)
        return sum(self.recall(query, peer_id) for peer_id in members)

    def recall_loss(self, query: Query, included_peers: Iterable[PeerId]) -> float:
        """Recall lost by *not* reaching the peers outside *included_peers*.

        This is the inner sum ``sum over pj not in P(si) of r(q, pj)`` of the
        individual cost (Eq. 1).
        """
        included = set(included_peers)
        return sum(
            self.recall(query, peer_id)
            for peer_id in self._providers
            if peer_id not in included
        )

    def __contains__(self, peer_id: PeerId) -> bool:
        return peer_id in self._providers

    def __len__(self) -> int:
        return len(self._providers)

    def __repr__(self) -> str:
        return f"RecallModel(peers={len(self._providers)})"
