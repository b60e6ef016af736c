"""Time-ordered query event streams and the one rule that merges them.

The traffic simulator works in *index space*: peers and distinct queries are
numbered once (by the surrounding :class:`~repro.traffic.workloads.WorkloadContext`)
and every event is three scalars — a timestamp, an issuer index and a query
index.  A :class:`QueryEventStream` is one time-sorted, array-backed source
of such events.  :func:`merge_streams` is the one definition of global event
order over any number of streams (a base arrival process plus e.g. a
flash-crowd burst): by time, ties by stream position, then by position
within the stream.  The simulator serves its output in fixed slices.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["QueryEventStream", "merge_streams"]


class QueryEventStream:
    """A time-sorted, array-backed source of query events.

    Parameters
    ----------
    times:
        Finite, non-decreasing event timestamps (simulated seconds).
    issuers, queries:
        Per-event issuer / distinct-query indexes into the owning
        :class:`~repro.traffic.workloads.WorkloadContext` orders.
    label:
        Short name used in reports (``"base"``, ``"burst"``, ...).
    """

    __slots__ = ("times", "issuers", "queries", "label")

    def __init__(
        self,
        times: np.ndarray,
        issuers: np.ndarray,
        queries: np.ndarray,
        *,
        label: str = "events",
    ) -> None:
        self.times = np.ascontiguousarray(times, dtype=np.float64)
        self.issuers = np.ascontiguousarray(issuers, dtype=np.int64)
        self.queries = np.ascontiguousarray(queries, dtype=np.int64)
        if not (self.times.shape == self.issuers.shape == self.queries.shape):
            raise ValueError(
                "times, issuers and queries must have identical shapes, got "
                f"{self.times.shape}, {self.issuers.shape}, {self.queries.shape}"
            )
        if self.times.ndim != 1:
            raise ValueError(f"event arrays must be one-dimensional, got {self.times.ndim}D")
        # NaN compares false either way, so the order check below cannot see it.
        if not np.isfinite(self.times).all():
            raise ValueError(f"stream {label!r} has a NaN or infinite time")
        if self.times.size > 1 and np.any(np.diff(self.times) < 0):
            raise ValueError(f"stream {label!r} is not sorted by time")
        self.label = label

    def __len__(self) -> int:
        return int(self.times.size)

    def __repr__(self) -> str:
        return f"QueryEventStream(label={self.label!r}, events={len(self)})"


def merge_streams(streams: Sequence[QueryEventStream]) -> QueryEventStream:
    """Merge several sorted streams into one globally time-sorted stream.

    Events are ordered by time; equal times resolve by stream position
    (earlier stream first) and then by position within the stream, so the
    merge is deterministic.  A lone non-empty stream is returned as is,
    without a copy.
    """
    live = [stream for stream in streams if len(stream)]
    if len(live) == 1:
        return live[0]
    if not live:
        empty = np.empty(0)
        return QueryEventStream(empty, empty, empty, label="merged")
    times = np.concatenate([stream.times for stream in live])
    issuers = np.concatenate([stream.issuers for stream in live])
    queries = np.concatenate([stream.queries for stream in live])
    # A stable sort on time keeps stream order, then stream position, on ties.
    order = np.argsort(times, kind="stable")
    return QueryEventStream(
        times[order], issuers[order], queries[order], label="merged"
    )
