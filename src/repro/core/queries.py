"""Queries and query workloads.

A query is a set of attributes; it matches a data item when its attributes
are a subset of the item's attributes.  The paper works with a global query
list ``Q`` (queries may appear multiple times) and per-peer local workloads
``Q(p)``; both are multisets, represented here by :class:`QueryWorkload`.

The two frequency notions used throughout the cost model are exposed
directly:

* ``num(Q)`` → :meth:`QueryWorkload.total`
* ``num(q, Q)`` → :meth:`QueryWorkload.count`
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from typing import Dict, List, Optional, Tuple

from repro.core.attributes import AttributeSet

__all__ = ["Query", "QueryWorkload"]


class Query:
    """A query: a set of attributes, optionally tagged with its issuer.

    Queries are value objects — two queries with the same attributes are the
    same query regardless of who issued them, which is what the frequency
    counts ``num(q, Q)`` in the paper rely on.
    """

    __slots__ = ("attributes",)

    def __init__(self, attributes: Iterable[str] | AttributeSet) -> None:
        if isinstance(attributes, AttributeSet):
            self.attributes = attributes
        else:
            self.attributes = AttributeSet(attributes)

    @classmethod
    def single_term(cls, term: str) -> "Query":
        """Convenience constructor for the single-keyword queries used in the evaluation."""
        return cls([term])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __repr__(self) -> str:
        return f"Query({sorted(self.attributes)!r})"


class QueryWorkload:
    """A multiset of queries (``Q`` or ``Q(p)`` in the paper's notation).

    The workload records how many times each distinct query appears.  It is
    mutable because Section 4.2 studies workload updates where a fraction of
    a peer's queries is replaced.

    The distinct queries' deterministic order (by ``tuple(query.attributes)``,
    what :meth:`distinct` and :meth:`items` follow) is sorted once and kept
    until the workload changes.  :meth:`add` and :meth:`remove_fraction` are
    the only writers of the counts: every :meth:`add` drops the cached
    order, and so does a :meth:`remove_fraction` that removes a query
    entirely.  :meth:`copy` shares the order with the copy.  A recall
    rebuild after drift thus sorts only the workloads that drifted.
    """

    def __init__(self, queries: Optional[Iterable[Query]] = None) -> None:
        self._counts: Counter = Counter()
        self._order: Optional[List[Query]] = None
        if queries is not None:
            for query in queries:
                self.add(query)

    # -- construction -----------------------------------------------------

    def add(self, query: Query, count: int = 1) -> None:
        """Add *count* occurrences of *query* to the workload."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count:
            self._counts[query] += count
            self._order = None

    def extend(self, queries: Iterable[Query]) -> None:
        """Add one occurrence of every query in *queries*."""
        for query in queries:
            self.add(query)

    def copy(self) -> "QueryWorkload":
        """Return an independent copy of the workload."""
        duplicate = QueryWorkload()
        duplicate._counts = Counter(self._counts)
        duplicate._order = self._order
        return duplicate

    def remove_fraction(self, fraction: float) -> "QueryWorkload":
        """Remove and return approximately ``fraction`` of the workload volume.

        Occurrences are removed query-by-query in deterministic (sorted) order
        until the requested volume has been removed.  Used by the workload
        update scenarios of Section 4.2.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        target = int(round(fraction * self.total()))
        removed = QueryWorkload()
        if target == 0:
            return removed
        for query in self._sorted():
            if target == 0:
                break
            available = self._counts[query]
            take = min(available, target)
            removed.add(query, take)
            remaining = available - take
            if remaining:
                self._counts[query] = remaining
            else:
                del self._counts[query]
                self._order = None
            target -= take
        return removed

    # -- frequency accessors ----------------------------------------------

    def total(self) -> int:
        """``num(Q)``: total number of query occurrences."""
        return sum(self._counts.values())

    def count(self, query: Query) -> int:
        """``num(q, Q)``: number of occurrences of *query*."""
        return self._counts.get(query, 0)

    def frequency(self, query: Query) -> float:
        """Relative frequency ``num(q, Q) / num(Q)`` (0 for an empty workload)."""
        total = self.total()
        if total == 0:
            return 0.0
        return self.count(query) / total

    def _sorted(self) -> List[Query]:
        """The cached distinct order (shared: never mutate it in place)."""
        if self._order is None:
            self._order = sorted(self._counts, key=lambda q: tuple(q.attributes))
        return self._order

    def distinct(self) -> List[Query]:
        """The distinct queries, in deterministic order (a fresh list)."""
        return list(self._sorted())

    def items(self) -> Iterator[Tuple[Query, int]]:
        """Iterate over ``(query, count)`` pairs in deterministic order."""
        counts = self._counts
        for query in self._sorted():
            yield query, counts[query]

    def as_frequency_dict(self) -> Dict[Query, float]:
        """Return a mapping of query to relative frequency."""
        total = self.total()
        if total == 0:
            return {}
        return {query: count / total for query, count in self.items()}

    # -- dunder ------------------------------------------------------------

    def __iter__(self) -> Iterator[Query]:
        """Iterate over distinct queries (use :meth:`items` for counts)."""
        return iter(self._sorted())

    def __len__(self) -> int:
        """Number of *distinct* queries."""
        return len(self._counts)

    def __contains__(self, query: Query) -> bool:
        return query in self._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryWorkload):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        return f"QueryWorkload(distinct={len(self)}, total={self.total()})"
