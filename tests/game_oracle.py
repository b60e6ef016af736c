"""Full-width references for the best-response kernel.

:class:`TableGame` is a :class:`~repro.game.model.ClusterGame` that never
uses a kernel.  Its :meth:`~TableGame.best_responses` rebuilds the 0/1
membership matrix and the ``W @ M`` covered-recall product from the recall
matrix on every call, and scores the fresh-cluster option peer by peer
through the cost model: the way the game answered before the incremental
kernel existed.  ``benchmarks/bench_best_response.py`` times the kernel
against it (the >=5x gate), and ``tests/game/test_kernel.py`` pins the
kernel's cost table to :meth:`~TableGame.prospective_cost_table`, so the
bench's baseline stays a correct one.

:func:`column_local` gathers a provider's whole column of ``W`` from the
factored recall, every row, the way the ``labels`` kernel applied a move
before it learnt which rows a provider reaches.  :class:`FullWidthKernel` is that kernel: the reach-bounded updates
must stay bit-identical to it (``tests/core/test_recall_matrix.py``,
``tests/game/test_kernel_labels.py``), and
``benchmarks/bench_best_response.py`` times moves against it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.costs import NEW_CLUSTER
from repro.core.recall_matrix import FactoredRecall
from repro.game.kernel import BestResponseKernel
from repro.game.model import BestResponse, ClusterGame


def column_local(factored: FactoredRecall, column: int) -> np.ndarray:
    """``W[:, column]``: every peer's weighted recall of one provider, all rows gathered."""
    return (factored.w_local * factored.B[factored.qidx, column]).sum(axis=1)


class FullWidthKernel(BestResponseKernel):
    """A ``labels`` kernel that applies each move to every row of the covered columns."""

    def _update_covered(self, row, column, operation):
        covered = self._cw.get(column)
        if covered is not None:
            operation(covered, column_local(self._source, row), out=covered)


class TableGame(ClusterGame):
    """A :class:`ClusterGame` whose batch path rebuilds the whole cost table per call.

    Needs a cost model with an attached recall matrix.  Its peers must all
    be known to that matrix.
    """

    @property
    def kernel(self):
        return None

    def prospective_cost_table(self):
        """``(peer_order, cluster_order, costs)`` over the existing candidate clusters.

        ``costs[i, k]`` is the individual cost peer ``i`` would incur with
        the single-cluster strategy ``cluster_order[k]`` (a cluster the
        peer is not in is evaluated "as if joined": size + 1, its own
        content reachable).
        """
        matrix = self.cost_model.matrix
        peer_order = matrix.peer_order
        candidates = [
            cluster_id for cluster_id in self.candidate_clusters() if cluster_id != NEW_CLUSTER
        ]
        membership, cluster_order = self.configuration.membership_matrix(peer_order, candidates)
        local = matrix.local_view()
        own = np.diag(local)[:, None]
        # Joining adds the peer's own weight unless the product already counted it.
        covered = local @ membership - membership * own + own
        losses = local.sum(axis=1, keepdims=True) - covered
        effective_sizes = membership.sum(axis=0)[None, :] + (1.0 - membership)
        max_size = int(effective_sizes.max()) if effective_sizes.size else 0
        theta_table = np.array(
            [self.cost_model.theta(size) for size in range(max_size + 1)], dtype=float
        )
        membership_costs = (
            self.cost_model.alpha
            * theta_table[effective_sizes.astype(int)]
            / self.cost_model.population_size
        )
        return peer_order, cluster_order, membership_costs + losses

    def best_responses(self, *, tolerance: float = 1e-12) -> Dict[object, BestResponse]:
        peer_order, cluster_order, costs = self.prospective_cost_table()
        include_new = NEW_CLUSTER in self.candidate_clusters()
        column_of = {cluster_id: column for column, cluster_id in enumerate(cluster_order)}
        responses: Dict[object, BestResponse] = {}
        for row, peer_id in enumerate(peer_order):
            if peer_id not in self.configuration:
                continue
            current_cluster = self.configuration.cluster_of(peer_id)
            current_cost = float(costs[row, column_of[current_cluster]])
            best_column = int(np.argmin(costs[row]))
            best_cost = float(costs[row, best_column])
            best_cluster = cluster_order[best_column]
            if include_new:
                new_cost = self.prospective_cost(peer_id, NEW_CLUSTER)
                if new_cost < best_cost - tolerance:
                    best_cost = new_cost
                    best_cluster = NEW_CLUSTER
            if best_cost >= current_cost - tolerance:
                best_cluster = current_cluster
                best_cost = current_cost
            responses[peer_id] = BestResponse(
                peer_id=peer_id,
                current_cluster=current_cluster,
                best_cluster=best_cluster,
                current_cost=current_cost,
                best_cost=best_cost,
            )
        return responses
