"""Registered query-arrival generators for the traffic simulator.

A *workload generator* turns the network's recorded per-peer workloads into
one or more time-sorted :class:`~repro.traffic.events.QueryEventStream`\\ s.
It reads them from a :class:`WorkloadContext`, whose workload table comes
from the network's recall matrix, the same table the cost model weights
recall with, in the same query order.  Generators are registered by name in
:data:`repro.registry.workload_registry`, so the arrival pattern is a sweep
axis like every other component:

* ``uniform`` — issuers drawn uniformly, each asking from its own local
  workload, arrivals uniform over the horizon;
* ``zipf`` — Zipf-heavy-tailed issuer popularity (rank by local workload
  volume), modelling a few peers generating most of the traffic;
* ``flash-crowd`` — a uniform base stream plus a concentrated burst window
  in which everyone hammers the globally hottest queries (two streams, so
  the simulator serves them through :func:`~repro.traffic.events.merge_streams`);
* ``replay`` — every occurrence of every peer's recorded workload exactly
  once per pass, evenly spaced; with a broadcast router this reproduces the
  exact recall model (the parity tests rely on it).

All randomness comes from the :class:`WorkloadContext`'s seeded generator —
given the same seed a generator emits byte-identical streams, which is what
makes traffic metrics sweep-safe for any worker count.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Any, List, Tuple

import numpy as np

from repro.core.queries import Query
from repro.errors import ConfigurationError
from repro.peers.network import PeerNetwork
from repro.registry import register_workload, workload_registry
from repro.traffic.events import QueryEventStream

__all__ = [
    "WorkloadContext",
    "WorkloadGenerator",
    "UniformWorkload",
    "ZipfWorkload",
    "FlashCrowdWorkload",
    "ReplayWorkload",
    "build_workload",
]

PeerId = Hashable


@dataclass
class WorkloadContext:
    """Everything a generator needs to emit event streams.

    Index space: ``peers[i]`` / ``queries[j]`` fix the meaning of the issuer
    and query indexes carried by every emitted stream; ``counts[i, j]`` is
    how often peer *i*'s recorded local workload contains distinct query *j*.
    :meth:`from_network` takes all three from the network's recall matrix,
    whose result counts the simulator routes with, in the same index space.
    """

    peers: List[PeerId]
    queries: List[Query]
    #: ``(|P|, |Q|)`` local workload occurrence counts.
    counts: np.ndarray
    #: Number of events a sampling generator should emit.
    num_events: int
    #: Length of the simulated time horizon, in seconds.
    horizon: float
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.Generator(np.random.PCG64(0))
    )

    @classmethod
    def from_network(
        cls,
        network: PeerNetwork,
        *,
        num_events: int,
        horizon: float = 1.0,
        seed: int = 0,
    ) -> "WorkloadContext":
        """Build a context from *network*'s recall matrix.

        ``peers`` is the matrix's peer order, ``queries`` its distinct
        queries (:attr:`FactoredRecall.queries`, the global workload's
        :meth:`~repro.core.queries.QueryWorkload.distinct` order), and
        ``counts`` scatters each row's ``w_count`` slots into their query
        columns.  The network rebuilds that matrix on the first access after
        a peer's ``version`` changes, so a context reads the same state as
        a cost model built at the same point.
        """
        if num_events < 0:
            raise ConfigurationError(f"num_events must be non-negative, got {num_events}")
        if not (horizon > 0 and np.isfinite(horizon)):
            raise ConfigurationError(f"horizon must be positive and finite, got {horizon}")
        matrix = network.recall_matrix()
        factored = matrix.factored()
        counts = np.zeros((len(matrix), len(factored.queries)), dtype=np.int64)
        rows, slots = np.nonzero(factored.w_count)
        counts[rows, factored.qidx[rows, slots]] = factored.w_count[rows, slots]
        return cls(
            peers=matrix.peer_order,
            queries=list(factored.queries),
            counts=counts,
            num_events=int(num_events),
            horizon=float(horizon),
            rng=np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))),
        )

    # -- sampling helpers ----------------------------------------------------------

    def issuing_rows(self) -> np.ndarray:
        """Peer rows with a non-empty local workload (the only possible issuers)."""
        return np.flatnonzero(self.counts.sum(axis=1) > 0)

    def sample_events(
        self, issuer_weights: np.ndarray, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``(issuers, queries)`` index arrays from the joint distribution.

        The joint law is ``P(i, q) ∝ issuer_weights[i] * counts[i, q] /
        counts[i].sum()`` — an issuer chosen by *issuer_weights*, then a query
        from its own local workload.  Sampling the flattened non-zero pairs
        in one vectorised draw keeps 100k+ events out of Python loops.
        """
        rows, columns = np.nonzero(self.counts)
        if rows.size == 0 or size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        row_totals = self.counts.sum(axis=1)
        pair_weights = (
            issuer_weights[rows] * self.counts[rows, columns] / row_totals[rows]
        )
        total = pair_weights.sum()
        if total <= 0:
            raise ConfigurationError("issuer weights select no peer with a workload")
        choices = self.rng.choice(rows.size, size=size, p=pair_weights / total)
        return rows[choices].astype(np.int64), columns[choices].astype(np.int64)

    def uniform_times(self, size: int, start: float, duration: float) -> np.ndarray:
        """*size* sorted arrival times uniform over ``[start, start + duration)``."""
        return np.sort(self.rng.random(size)) * duration + start


class WorkloadGenerator:
    """Base class for registered arrival generators."""

    name = "workload"

    def streams(self, context: WorkloadContext) -> List[QueryEventStream]:
        """The time-sorted event streams this generator emits for *context*."""
        raise NotImplementedError


@register_workload("uniform")
class UniformWorkload(WorkloadGenerator):
    """Issuers uniform over the population, arrivals uniform over the horizon."""

    name = "uniform"

    def streams(self, context: WorkloadContext) -> List[QueryEventStream]:
        weights = np.zeros(len(context.peers))
        weights[context.issuing_rows()] = 1.0
        issuers, queries = context.sample_events(weights, context.num_events)
        times = context.uniform_times(issuers.size, 0.0, context.horizon)
        return [QueryEventStream(times, issuers, queries, label="uniform")]


@register_workload("zipf", aliases=("zipf-heavy-tail",))
class ZipfWorkload(WorkloadGenerator):
    """Zipf-heavy-tailed issuer popularity: rank peers by workload volume.

    The *i*-th most demanding peer issues with weight ``1 / rank**exponent``;
    each issuer still asks queries from its own local workload, so content
    skew comes from the scenario and demand skew from this generator.
    """

    name = "zipf"

    def __init__(self, exponent: float = 1.1) -> None:
        if exponent <= 0:
            raise ConfigurationError(f"zipf exponent must be positive, got {exponent}")
        self.exponent = float(exponent)

    def streams(self, context: WorkloadContext) -> List[QueryEventStream]:
        rows = context.issuing_rows()
        volumes = context.counts.sum(axis=1)[rows]
        # Stable rank: volume descending, row index ascending on ties.
        order = np.lexsort((rows, -volumes))
        weights = np.zeros(len(context.peers))
        weights[rows[order]] = 1.0 / np.arange(1, rows.size + 1) ** self.exponent
        issuers, queries = context.sample_events(weights, context.num_events)
        times = context.uniform_times(issuers.size, 0.0, context.horizon)
        return [QueryEventStream(times, issuers, queries, label="zipf")]


@register_workload("flash-crowd", aliases=("flash", "burst"))
class FlashCrowdWorkload(WorkloadGenerator):
    """A uniform base stream plus a burst hammering the hottest queries.

    ``burst_fraction`` of the events land inside the window
    ``[burst_start, burst_start + burst_duration]`` (fractions of the
    horizon) and all pose one of the ``hot_queries`` globally most frequent
    distinct queries; the rest behave like ``uniform``.  Emitted as two
    streams, so the simulator genuinely merges concurrent sources.
    """

    name = "flash-crowd"

    def __init__(
        self,
        burst_fraction: float = 0.5,
        burst_start: float = 0.4,
        burst_duration: float = 0.1,
        hot_queries: int = 1,
    ) -> None:
        if not 0.0 <= burst_fraction <= 1.0:
            raise ConfigurationError(
                f"burst_fraction must be in [0, 1], got {burst_fraction}"
            )
        if not 0.0 <= burst_start <= 1.0 or burst_duration <= 0:
            raise ConfigurationError(
                "burst window must satisfy 0 <= burst_start <= 1 and "
                f"burst_duration > 0, got start={burst_start}, duration={burst_duration}"
            )
        if hot_queries < 1:
            raise ConfigurationError(f"hot_queries must be at least 1, got {hot_queries}")
        self.burst_fraction = float(burst_fraction)
        self.burst_start = float(burst_start)
        self.burst_duration = float(burst_duration)
        self.hot_queries = int(hot_queries)

    def streams(self, context: WorkloadContext) -> List[QueryEventStream]:
        burst_size = int(round(context.num_events * self.burst_fraction))
        base_size = context.num_events - burst_size
        weights = np.zeros(len(context.peers))
        rows = context.issuing_rows()
        weights[rows] = 1.0
        base_issuers, base_queries = context.sample_events(weights, base_size)
        base_times = context.uniform_times(base_issuers.size, 0.0, context.horizon)
        streams = [
            QueryEventStream(base_times, base_issuers, base_queries, label="base")
        ]
        if burst_size and rows.size:
            popularity = context.counts.sum(axis=0)
            hot = np.argsort(-popularity, kind="stable")[: self.hot_queries]
            burst_issuers = rows[context.rng.integers(0, rows.size, size=burst_size)]
            burst_queries = hot[context.rng.integers(0, hot.size, size=burst_size)]
            start = self.burst_start * context.horizon
            duration = min(
                self.burst_duration * context.horizon, context.horizon - start
            )
            burst_times = context.uniform_times(burst_size, start, max(duration, 1e-12))
            streams.append(
                QueryEventStream(
                    burst_times,
                    burst_issuers.astype(np.int64),
                    burst_queries.astype(np.int64),
                    label="burst",
                )
            )
        return streams


@register_workload("replay")
class ReplayWorkload(WorkloadGenerator):
    """Replay every recorded workload occurrence exactly once per pass.

    Ignores ``num_events``: the event count is ``passes * counts.sum()``.
    Events are evenly spaced over the horizon in deterministic (peer order,
    query order) sequence — no randomness at all, so with a broadcast router
    the observed per-cluster recall equals the exact recall model's.
    """

    name = "replay"

    def __init__(self, passes: int = 1) -> None:
        if passes < 1:
            raise ConfigurationError(f"passes must be at least 1, got {passes}")
        self.passes = int(passes)

    def streams(self, context: WorkloadContext) -> List[QueryEventStream]:
        rows, columns = np.nonzero(context.counts)
        occurrences = context.counts[rows, columns]
        issuers_once = np.repeat(rows, occurrences).astype(np.int64)
        queries_once = np.repeat(columns, occurrences).astype(np.int64)
        issuers = np.tile(issuers_once, self.passes)
        queries = np.tile(queries_once, self.passes)
        size = issuers.size
        times = (
            (np.arange(size, dtype=np.float64) + 0.5) / max(size, 1) * context.horizon
        )
        return [QueryEventStream(times, issuers, queries, label="replay")]


def build_workload(name: str, **options: Any) -> WorkloadGenerator:
    """Construct a workload generator by its registered *name*.

    Built-ins: ``uniform``, ``zipf`` (takes ``exponent``), ``flash-crowd``
    (takes the burst window knobs) and ``replay`` (takes ``passes``); new
    generators plug in through :func:`repro.registry.register_workload`.
    """
    return workload_registry.create(name, **options)
