"""Message accounting.

The paper's motivation for local maintenance is precisely communication
cost, so :class:`MessageBus` counts the messages of a run by kind.  It is a
counter: no message object is ever built, each layer adds its totals
through :meth:`MessageBus.add`.  The kinds are:

* ``QueryMessage`` — a query sent from its issuer to (a representative of)
  a cluster: one per reached cluster, per query;
* ``ResultMessage`` — query results returned to the issuer, annotated with
  the providing cluster's cid: one per provider holding results, per query;
* ``GainReportMessage`` — phase one of a protocol round: a peer reports its
  gain to the representative of each cluster it belongs to;
* ``RelocationRequestMessage`` — phase one: a representative advertises its
  cluster's best relocation request to every other representative;
* ``GrantMessage`` — phase two: two representatives agree to satisfy a
  relocation request, one per granted move.

Period observation (:func:`~repro.traffic.simulator.observe_period`) and the
:class:`~repro.traffic.simulator.TrafficSimulator` count the query layer, the
reformulation protocol counts its own rounds, and the global re-clustering
baseline counts its profile uploads and assignments as queries and results.
The experiment layer reads the per-kind counters when reporting overheads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["MessageBus"]


@dataclass
class MessageBus:
    """Counts messages by kind."""

    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, kind: str, count: int) -> None:
        """Record *count* messages of type *kind* at once (a zero count records nothing)."""
        if count:
            self.counts[kind] = self.counts.get(kind, 0) + count

    def count(self, kind: str) -> int:
        """Number of messages of the given type name recorded so far."""
        return self.counts.get(kind, 0)

    def total(self) -> int:
        """Total number of messages recorded."""
        return sum(self.counts.values())

    def reset(self) -> None:
        """Clear all counters."""
        self.counts.clear()

    def snapshot(self) -> Dict[str, int]:
        """Copy of the per-type counters."""
        return dict(self.counts)

    def __repr__(self) -> str:
        return f"MessageBus(total={self.total()}, kinds={sorted(self.counts)})"
