"""Workload-weighted recall matrices — dense and factored representations.

Evaluating the individual cost of every peer against every candidate cluster
on every protocol round is the hot loop of the reproduction.  The recall
term of the individual cost only ever uses the per-query recalls ``r(q, pj)``
weighted by the query frequencies of the evaluating peer, so the whole term
collapses to a single |P| x |P| matrix::

    W[i, j] = sum over q in Q(p_i) of  num(q, Q(p_i)) / num(Q(p_i)) * r(q, p_j)

With ``W`` in hand, the recall loss of peer ``i`` for a set of co-clustered
peers ``P(s_i)`` is ``W[i, :].sum() - W[i, P(s_i)].sum()`` — a couple of numpy
reductions instead of thousands of per-query lookups.

The workload cost (Eq. 3) weights each query by its *global* frequency
instead.  Peer ``i``'s term there is its recall loss under ``W`` times its
share of all issued queries, :attr:`WeightedRecallMatrix.workload_share`::

    share[i] = num(Q(p_i)) / num(Q)

so one table serves both costs.

**The factored form.**  ``W`` factors through the much smaller
recall table ``B[q, j] = r(q, p_j)`` over the *distinct* queries ``q``
(vocabulary-bounded — a few hundred for the paper's single-term workloads,
regardless of population size)::

    W[i, j] = sum over k of  w[i, k] * B[qidx[i, k], j]

where ``qidx``/``w`` are per-peer padded query-index and weight arrays with
at most ``kmax`` (queries per peer) columns.  :class:`FactoredRecall` holds
exactly these arrays: O(|P| * kmax + |Q_u| * |P|) memory instead of O(|P|^2),
with every covered-column of ``W`` recoverable as an O(|P| * kmax) gather.
A single provider's column is nonzero only on the peers that issue a query
it answers: :meth:`FactoredRecall.reached_column` finds them through a
query -> issuers index and gathers those rows alone.  The altruistic
contribution measure (Eq. 6) factors the same way, through the integer
result counts ``R[q, j] = result(q, p_j)`` and the per-cluster query
demand :meth:`FactoredRecall.query_demand`.  This is what lets the
label-vector best-response kernel and the 100k-peer benchmarks run without
ever materialising a |P| x |P| array.

The dense matrices are *built from* the factored form with a per-query
accumulation that reproduces the historical per-row Python loop bit for bit
(same per-element accumulation order, same scalar divisions, exact +0.0
padding), so dense consumers see byte-identical matrices at a fraction of the
construction cost.

**Which form.**  The population decides, here and nowhere else: below
:attr:`WeightedRecallMatrix.FACTORED_THRESHOLD` peers the matrix is dense
(``W`` built up front), at or above it factored (the dense matrices then
materialise lazily only if a dense consumer asks).  The
best-response kernel follows the matrix: its ``dense`` backend runs on a
dense matrix, its ``labels`` backend on a factored one.  ``mode=`` forces a
form; tests and benchmarks use it to run both at any population.

Both representations are exact restatements of the paper's formulas; the
test suite cross-checks them against the reference (per-query) implementation.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Mapping
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.queries import Query, QueryWorkload
from repro.core.recall import RecallModel
from repro.errors import ConfigurationError, UnknownPeerError

__all__ = ["WeightedRecallMatrix", "FactoredRecall"]

PeerId = Hashable


class FactoredRecall:
    """The ``W = A @ B`` factorisation of the weighted recall matrix.

    Attributes
    ----------
    B:
        ``(|Q_u|, |P|)`` recall table over the distinct queries: ``B[k, j] =
        r(queries[k], peer_order[j])``.
    B_totals:
        ``(|Q_u|,)`` total result counts per distinct query (as floats).
    qidx:
        ``(|P|, kmax)`` per-peer query-row indices into ``B`` (zero-padded;
        padded entries carry zero weights, so they never contribute).
    w_local / w_count:
        ``(|P|, kmax)`` per-peer query weights: ``num(q, Q(p)) / num(Q(p))``
        and the raw counts ``num(q, Q(p))``.
    """

    __slots__ = (
        "queries",
        "B",
        "B_totals",
        "qidx",
        "w_local",
        "w_count",
        "_issuers",
    )

    def __init__(
        self,
        queries: List[Query],
        B: np.ndarray,
        B_totals: np.ndarray,
        qidx: np.ndarray,
        w_local: np.ndarray,
        w_count: np.ndarray,
    ) -> None:
        self.queries = queries
        self.B = B
        self.B_totals = B_totals
        self.qidx = qidx
        self.w_local = w_local
        self.w_count = w_count
        self._issuers: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        recall_model: RecallModel,
        workloads: Mapping[PeerId, QueryWorkload],
        peer_order: Sequence[PeerId],
    ) -> "FactoredRecall":
        """Build the factored arrays.

        The distinct queries are in the order :meth:`QueryWorkload.distinct`
        gives the global workload (by ``tuple(query.attributes)``), so row
        ``k`` of ``B`` and column ``k`` of the traffic layer's workload
        table (:class:`~repro.traffic.workloads.WorkloadContext`) are the
        same query.  One pass numbers the queries as they first appear and
        records each slot; one vectorised step renumbers them in that order.
        """
        first_seen: Dict[Query, int] = {}
        rows: List[int] = []
        slots: List[int] = []
        slot_queries: List[int] = []
        slot_counts: List[int] = []
        for row, peer_id in enumerate(peer_order):
            workload = workloads.get(peer_id)
            if workload is None:
                continue
            for slot, (query, count) in enumerate(workload.items()):
                rows.append(row)
                slots.append(slot)
                slot_queries.append(first_seen.setdefault(query, len(first_seen)))
                slot_counts.append(count)
        queries = sorted(first_seen, key=lambda query: tuple(query.attributes))
        rank = np.empty(len(queries), dtype=np.intp)
        rank[[first_seen[query] for query in queries]] = np.arange(len(queries))
        counts, totals = recall_model.result_count_matrix(queries, peer_order)
        totals_f = totals.astype(float)
        B = np.zeros(counts.shape, dtype=float)
        np.divide(counts, totals_f[:, None], out=B, where=totals_f[:, None] > 0)
        shape = (len(peer_order), max(slots, default=-1) + 1)
        qidx = np.zeros(shape, dtype=np.intp)
        w_count = np.zeros(shape)
        qidx[rows, slots] = rank[np.asarray(slot_queries, dtype=np.intp)]
        w_count[rows, slots] = slot_counts
        issued = w_count.sum(axis=1, keepdims=True)
        w_local = np.divide(w_count, issued, out=np.zeros(shape), where=issued > 0)
        return cls(queries, B, totals_f, qidx, w_local, w_count)

    # -- segmented reductions ------------------------------------------------

    @property
    def population(self) -> int:
        return self.qidx.shape[0]

    def totals_local(self) -> np.ndarray:
        """``W.sum(axis=1)`` without materialising ``W`` (O(|P| * kmax))."""
        row_sums = self.B.sum(axis=1)
        return (self.w_local * row_sums[self.qidx]).sum(axis=1)

    def own_local(self) -> np.ndarray:
        """``diag(W)`` — each peer's weighted recall of its own content."""
        gathered = self.B[self.qidx, np.arange(self.population)[:, None]]
        return (self.w_local * gathered).sum(axis=1)

    def issuers(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, rows)``: which rows issue each distinct query, in CSR form.

        ``rows[indptr[q]:indptr[q + 1]]`` are the rows whose workload holds
        query ``q`` (their ``w_count != 0`` slots), ascending: the inverted
        index of ``qidx``.  Built on first use, then cached.
        """
        if self._issuers is None:
            slot_rows, slot_columns = np.nonzero(self.w_count)
            slot_queries = self.qidx[slot_rows, slot_columns]
            order = np.argsort(slot_queries, kind="stable")
            indptr = np.zeros(len(self.queries) + 1, dtype=np.intp)
            np.cumsum(np.bincount(slot_queries, minlength=len(self.queries)), out=indptr[1:])
            self._issuers = (indptr, slot_rows[order])
        return self._issuers

    def reached_column(self, column: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, W[rows, column])`` over the rows provider *column* reaches.

        ``rows`` are the issuers (:meth:`issuers`) of the queries the
        provider answers (``B[q, column] != 0``), ascending.  Each reached
        entry is the full-width sum ``(w[row] * B[qidx[row], column]).sum()``
        over all ``kmax`` slots, padding included, so it is bit-identical to
        the same entry of a whole-column gather.  Every other row's entry is
        an exact ``+0.0``: each of its terms multiplies a zero recall or a
        zero padding weight.  The cost follows the provider's reach, not the
        population.
        """
        recall = self.B[:, column].copy()
        indptr, issuer_rows = self.issuers()
        reached = np.zeros(self.population, dtype=bool)
        for query in np.flatnonzero(recall).tolist():
            reached[issuer_rows[indptr[query] : indptr[query + 1]]] = True
        rows = np.flatnonzero(reached)
        return rows, (self.w_local[rows] * recall[self.qidx[rows]]).sum(axis=1)

    def covered_local(self, columns: np.ndarray) -> np.ndarray:
        """``W[:, columns].sum(axis=1)`` — covered recall of one member set.

        A segmented reduction: the member columns collapse to a per-query
        group recall ``B[:, columns].sum(axis=1)`` (O(|Q_u| * |members|)),
        then one O(|P| * kmax) gather redistributes it to every evaluating
        peer.  No |P| x |C| product anywhere.
        """
        group = self.B[:, columns].sum(axis=1)
        return (self.w_local * group[self.qidx]).sum(axis=1)

    def query_demand(self, membership: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(D, d)``: how often each cluster's members, and all peers, issue each query.

        ``D[q, c]`` sums ``w_count[j, k] * membership[j, c]`` over the slots
        ``k`` with ``qidx[j, k] == q`` — the ``(|Q_u|, |C|)`` demand of the
        members of cluster ``c`` — and ``d[q]`` sums ``w_count`` over every
        peer.  One ``np.bincount`` each, over the membership's nonzeros; for
        a 0/1 membership every entry is an integer count, exact in float64.
        """
        num_queries = len(self.queries)
        num_clusters = membership.shape[1]
        issued = np.bincount(
            self.qidx.ravel(), weights=self.w_count.ravel(), minlength=num_queries
        )
        rows, columns = np.nonzero(membership)
        bins = self.qidx[rows] * num_clusters + columns[:, None]
        weights = self.w_count[rows] * membership[rows, columns][:, None]
        demand = np.bincount(
            bins.ravel(), weights=weights.ravel(), minlength=num_queries * num_clusters
        )
        return demand.reshape(num_queries, num_clusters), issued

    # -- dense materialisation ----------------------------------------------

    def dense_local(self) -> np.ndarray:
        """Materialise ``W`` — bit-identical to the historical per-row loop.

        Element ``[i, j]`` accumulates ``w_local[i, k] * B[qidx[i, k], j]``
        over ``k`` in workload order, exactly the additions the reference
        Python loop performed (padding contributes exact ``+0.0`` terms).
        """
        population = self.population
        out = np.zeros((population, population))
        for k in range(self.qidx.shape[1]):
            out += self.w_local[:, k, None] * self.B[self.qidx[:, k], :]
        return out

    def dense_service(self) -> np.ndarray:
        """Materialise the service matrix ``S`` (rows: providers)."""
        population = self.population
        out = np.zeros((population, population))
        for k in range(self.qidx.shape[1]):
            rows = self.qidx[:, k]
            term = self.w_count[:, k, None] * self.B[rows, :]
            term *= self.B_totals[rows, None]
            out += term
        return np.ascontiguousarray(out.T)

    def __repr__(self) -> str:
        return (
            f"FactoredRecall(peers={self.population}, queries={len(self.queries)}, "
            f"kmax={self.qidx.shape[1]})"
        )


class WeightedRecallMatrix:
    """Pre-computed, workload-weighted recall matrices over a peer population.

    Parameters
    ----------
    recall_model:
        The exact recall model providing ``r(q, p)``.
    workloads:
        Mapping from peer id to that peer's local query workload ``Q(p)``.
    peer_order:
        Optional explicit ordering of peer ids (defaults to the recall
        model's deterministic order).  The ordering fixes the matrix row /
        column layout.
    mode:
        ``None`` (default) picks by population: ``"dense"`` below
        :attr:`FACTORED_THRESHOLD` peers, ``"factored"`` at or above it.
        ``"dense"`` materialises ``W`` at construction and the service
        matrix on first use.  ``"factored"`` keeps only the
        :class:`FactoredRecall` arrays; the dense matrices build lazily if
        (and only if) a dense consumer asks, so label-vector kernels at 50k+
        peers never pay O(|P|^2) memory.  Passing a mode forces that form
        (tests and benchmarks do, to run both kernel backends).
    """

    #: Population at or above which ``mode=None`` picks the factored form.
    FACTORED_THRESHOLD = 2048

    def __init__(
        self,
        recall_model: RecallModel,
        workloads: Mapping[PeerId, QueryWorkload],
        peer_order: Optional[Sequence[PeerId]] = None,
        *,
        mode: Optional[str] = None,
    ) -> None:
        if mode not in (None, "dense", "factored"):
            raise ConfigurationError(
                "recall matrix mode must be None (picked by population), "
                f"'dense' or 'factored', got {mode!r}"
            )
        self._recall_model = recall_model
        self._workloads = workloads
        self._peer_order: List[PeerId] = list(peer_order) if peer_order is not None else list(
            recall_model.peer_ids
        )
        self._index_of: Dict[PeerId, int] = {
            peer_id: index for index, peer_id in enumerate(self._peer_order)
        }
        if len(self._index_of) != len(self._peer_order):
            repeated = sorted(
                (peer_id for peer_id, count in Counter(self._peer_order).items() if count > 1),
                key=repr,
            )
            raise ConfigurationError(
                f"peer_order must list each peer id once; repeated: {repeated!r}"
            )
        #: Memoised peer-set -> sorted row indices translation (frozenset keys
        #: only; member sets repeat across peers and rounds, so the same
        #: cluster never pays the dict-lookup translation twice).
        self._indices_cache: Dict[FrozenSet[PeerId], np.ndarray] = {}
        self._repr_rank: Optional[np.ndarray] = None
        if mode is None:
            mode = "factored" if len(self._peer_order) >= self.FACTORED_THRESHOLD else "dense"
        self._mode = mode
        self._factored: Optional[FactoredRecall] = None
        self._local: Optional[np.ndarray] = None
        self._workload_share: Optional[np.ndarray] = None
        self._service: Optional[np.ndarray] = None
        self._result_counts: Optional[np.ndarray] = None
        if mode == "dense":
            self._ensure_local()

    # -- construction -------------------------------------------------------

    def factored(self) -> FactoredRecall:
        """The :class:`FactoredRecall` arrays (built once, then cached)."""
        if self._factored is None:
            self._factored = FactoredRecall.build(
                self._recall_model, self._workloads, self._peer_order
            )
        return self._factored

    def _ensure_local(self) -> np.ndarray:
        if self._local is None:
            self._local = self.factored().dense_local()
        return self._local

    def _ensure_service(self) -> np.ndarray:
        if self._service is None:
            self._service = self.factored().dense_service()
        return self._service

    def _check_membership(self, membership: np.ndarray) -> None:
        if membership.shape[0] != len(self._peer_order):
            raise ConfigurationError(
                f"membership must have one row per peer ({len(self._peer_order)} rows), "
                f"got {membership.shape[0]} rows"
            )

    # -- accessors -----------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"dense"`` or ``"factored"`` (forced, or picked by population at construction)."""
        return self._mode

    @property
    def peer_order(self) -> List[PeerId]:
        """The row/column ordering of peer ids."""
        return list(self._peer_order)

    @property
    def peer_index(self) -> Dict[PeerId, int]:
        """The live ``peer_id -> row index`` map.

        Shared with every consumer (kernels, cost models) so the map is built
        exactly once per matrix — treat it as read-only.
        """
        return self._index_of

    @property
    def repr_rank(self) -> np.ndarray:
        """Each row's rank in ``repr`` order of the peer ids (built once, read-only).

        Ranks compare like the ``repr`` of the peer ids they stand for, so the
        protocol's gather breaks gain ties between rows with one array sort.
        """
        if self._repr_rank is None:
            peer_order = self._peer_order
            order = sorted(range(len(peer_order)), key=lambda row: repr(peer_order[row]))
            rank = np.empty(len(order), dtype=np.intp)
            rank[order] = np.arange(len(order))
            rank.flags.writeable = False
            self._repr_rank = rank
        return self._repr_rank

    @property
    def workload_share(self) -> np.ndarray:
        """``num(Q(p)) / num(Q)`` per row: each peer's share of all issued queries.

        ``num(Q)`` sums the workloads of the peers in :attr:`peer_order`; with
        no query issued at all every share is 0.  The workload cost (Eq. 3)
        weights row ``i``'s recall loss under ``W`` by ``share[i]``.  Built
        once, read-only.
        """
        if self._workload_share is None:
            issued = self.factored().w_count.sum(axis=1)
            total = issued.sum()
            share = issued / total if total else np.zeros_like(issued)
            share.flags.writeable = False
            self._workload_share = share
        return self._workload_share

    def result_counts(self) -> np.ndarray:
        """``R[q, j] = result(queries[q], peer_order[j])`` as float64 integers.

        Rows follow :attr:`FactoredRecall.queries`.  The counts
        :meth:`FactoredRecall.build` divided into ``B``, recovered as
        ``rint(B * B_totals)`` on first use only, so sessions that never
        ask (selfish ones that neither observe nor serve traffic) do not
        hold this ``(|Q_u|, |P|)`` array.  The recovery is exact: each
        quotient times its divisor lies within ``count * 2**-52`` of the
        integer count.  Built once, read-only; Eq. 6 and the traffic
        layer's routing tables read it.
        """
        if self._result_counts is None:
            factored = self.factored()
            counts = factored.B * factored.B_totals[:, None]
            np.rint(counts, out=counts)
            counts.flags.writeable = False
            self._result_counts = counts
        return self._result_counts

    def index_of(self, peer_id: PeerId) -> int:
        """Row index of *peer_id*."""
        try:
            return self._index_of[peer_id]
        except KeyError:
            raise UnknownPeerError(peer_id) from None

    def local_matrix(self) -> np.ndarray:
        """Copy of the locally-weighted matrix ``W`` (rows: evaluating peer)."""
        return self._ensure_local().copy()

    def service_matrix(self) -> np.ndarray:
        """Copy of the service matrix ``S``.

        ``S[p, j]`` is the total number of results peer ``p`` provides for the
        local workload of peer ``j`` (``sum over q in Q(p_j) of num(q, Q(p_j))
        * result(q, p)``) — the raw material of the altruistic contribution
        measure (Eq. 6).
        """
        return self._ensure_service().copy()

    def local_view(self) -> np.ndarray:
        """Read-only (non-copying) view of ``W`` — for consumers that never write."""
        view = self._ensure_local().view()
        view.flags.writeable = False
        return view

    def contribution_matrix(self, membership: np.ndarray) -> np.ndarray:
        """Vectorised ``contribution(p, c)`` (Eq. 6) for every peer and cluster.

        Parameters
        ----------
        membership:
            A ``(|P|, |C|)`` 0/1 matrix of current cluster membership.

        Returns
        -------
        numpy.ndarray
            A ``(|P|, |C|)`` matrix whose ``[p, k]`` entry is the fraction of
            all results served by peer ``p`` that go to queries issued by
            members of cluster ``k``.  Rows of peers that serve no results are
            all zeros.

        Notes
        -----
        Both result counts of Eq. 6 are integers.  Factored mode keeps them
        integers: ``served = R.T @ D`` and ``totals = R.T @ d``, with the
        result counts ``R`` and the query demand ``(D, d)`` of
        :meth:`FactoredRecall.query_demand`.  These are result and query
        counts, so every product and partial sum is an integer far below
        2**53: BLAS adds them exactly in any order, and each entry is one
        correctly rounded division: bit-identical to
        the per-peer :func:`~repro.strategies.altruistic.exact_contributions`,
        ties included, with no |P| x |P| array.  Dense mode multiplies the
        service matrix ``S`` (built on the first call) by the membership;
        ``S`` carries the recall table's rounding, so entries agree with the
        exact ratio only to ~1e-16 and exact ties can break either way.
        """
        self._check_membership(membership)
        if self._mode == "factored":
            counts = self.result_counts()
            demand, issued = self.factored().query_demand(membership)
            served_per_cluster = counts.T @ demand
            totals = (counts.T @ issued)[:, None]
        else:
            service = self._ensure_service()
            served_per_cluster = service @ membership
            totals = service.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            contributions = np.where(totals > 0, served_per_cluster / totals, 0.0)
        return contributions

    # -- recall-loss queries ---------------------------------------------------

    #: Bound above which the peer-set -> indices memo is reset (the sets are
    #: tiny arrays, but protocol runs produce a fresh frozenset per membership
    #: change, so the memo would otherwise grow without limit).
    _INDICES_CACHE_LIMIT = 8192

    def covered_indices(self, covered_peers: Iterable[PeerId]) -> np.ndarray:
        """Sorted, de-duplicated row indices of the known peers in *covered_peers*.

        Sorting by index keeps the reduction order deterministic (it matches
        the old ``sorted(..., key=repr)`` order whenever the peer order itself
        is repr-sorted, as every built scenario's is) without re-sorting peer
        ids by repr on every cost evaluation; ``np.unique`` also drops
        duplicate mentions, exactly like the ``set()`` the exact reference
        path builds.  Results for ``frozenset`` arguments — what
        :meth:`ClusterConfiguration.covered_peers` returns — are memoised.
        """
        cache_key = covered_peers if isinstance(covered_peers, frozenset) else None
        if cache_key is not None:
            cached = self._indices_cache.get(cache_key)
            if cached is not None:
                return cached
        index_of = self._index_of
        indices = np.unique(
            np.fromiter(
                (index_of[other] for other in covered_peers if other in index_of),
                dtype=np.intp,
            )
        )
        if cache_key is not None:
            if len(self._indices_cache) >= self._INDICES_CACHE_LIMIT:
                self._indices_cache.clear()
            self._indices_cache[cache_key] = indices
        return indices

    def total_weight(self, peer_id: PeerId) -> float:
        """Total weighted recall available to *peer_id* (joining every cluster)."""
        return float(self._ensure_local()[self.index_of(peer_id)].sum())

    def covered_weight(self, peer_id: PeerId, covered_peers: Iterable[PeerId]) -> float:
        """Weighted recall that *peer_id* obtains from the peers in *covered_peers*."""
        row = self._ensure_local()[self.index_of(peer_id)]
        indices = self.covered_indices(covered_peers)
        if indices.size == 0:
            return 0.0
        return float(row[indices].sum())

    def recall_loss(self, peer_id: PeerId, covered_peers: Iterable[PeerId]) -> float:
        """Weighted recall lost by not reaching peers outside *covered_peers*.

        This equals the second term of the individual cost (Eq. 1) for the
        strategy whose covered peer set is *covered_peers*.
        """
        return self.total_weight(peer_id) - self.covered_weight(peer_id, covered_peers)

    def __len__(self) -> int:
        return len(self._peer_order)

    def __repr__(self) -> str:
        return f"WeightedRecallMatrix(peers={len(self._peer_order)}, mode={self._mode})"
