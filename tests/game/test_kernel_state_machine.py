"""Stateful property test: the kernel's live state under membership churn.

A Hypothesis :class:`RuleBasedStateMachine` drives one configuration through
assigns, moves, peer departures, new cluster slots, extra memberships, a
peer the recall matrix does not know, and a step that puts every matrix peer
back into exactly one cluster (the regime the kernel answers vectorized),
with a :class:`BestResponseKernel` listening, once per backend (over a dense
and over a factored recall matrix).  After every step:

* the membership regime the kernel answers in O(1) —
  ``_single_cluster_columns()`` and ``_has_untracked_peers()`` — equals a
  rescan of the configuration;
* ``social_cost`` and ``workload_cost`` match the per-query
  :class:`~repro.core.costs.CostModel` to 1e-9 wherever the cost model is
  defined (every matrix peer assigned);
* ``cost_table`` over every cluster slot, ``new_cluster_costs`` and
  ``current_costs`` match the per-query ``prospective_pcost`` and ``pcost``
  to 1e-9 wherever the kernel answers (no peer the matrix does not know in
  the configuration: its membership would count in the reference's
  cluster sizes but not in the kernel's).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.costs import NEW_CLUSTER
from repro.errors import UnknownPeerError
from repro.game.kernel import BestResponseKernel
from repro.peers.configuration import ClusterConfiguration
from tests.conftest import BACKEND_MODES, cost_model_in_mode, make_small_scenario

#: A peer the recall matrix does not know.
STRANGER = "stranger"

#: The reference ``prospective_pcost`` by (peer, members of the cluster it
#: joins): the value depends on nothing else, and most clusters outlive a step.
PROSPECTIVE_COSTS = {}


@lru_cache(maxsize=None)
def shared_models(backend):
    """The small scenario's cost models: (over *backend*'s matrix form, per-query reference)."""
    network = make_small_scenario().network
    return (
        cost_model_in_mode(network, BACKEND_MODES[backend]),
        network.cost_model(use_matrix=False),
    )


class KernelMachine(RuleBasedStateMachine):
    backend = "dense"

    def __init__(self) -> None:
        super().__init__()
        self.cost_model, self.reference = shared_models(self.backend)
        self.matrix_peers = self.cost_model.matrix.peer_order
        self.configuration = ClusterConfiguration(
            [f"c{index}" for index in range(5)],
            {peer_id: f"c{row % 5}" for row, peer_id in enumerate(self.matrix_peers)},
        )
        self.kernel = BestResponseKernel(self.cost_model, self.configuration)
        assert self.kernel.backend == self.backend
        self.slots_added = 0

    # -- steps ------------------------------------------------------------------

    def _unassigned(self):
        return [peer_id for peer_id in self.matrix_peers if peer_id not in self.configuration]

    def _free_slots(self, peer_id):
        current = self.configuration.clusters_of(peer_id)
        return [c for c in self.configuration.cluster_ids() if c not in current]

    def _any_slot(self, data):
        return data.draw(st.sampled_from(self.configuration.cluster_ids()))

    @precondition(lambda self: self.configuration.num_peers() > 0)
    @rule(data=st.data())
    def move(self, data):
        peer_id = data.draw(st.sampled_from(self.configuration.peer_ids()))
        clusters = sorted(self.configuration.clusters_of(peer_id), key=repr)
        source = data.draw(st.sampled_from(clusters))
        targets = self._free_slots(peer_id)
        if targets:
            self.configuration.move(peer_id, source, data.draw(st.sampled_from(targets)))

    @precondition(lambda self: self.configuration.num_peers() > 0)
    @rule(data=st.data())
    def join_another_cluster(self, data):
        peer_id = data.draw(st.sampled_from(self.configuration.peer_ids()))
        targets = self._free_slots(peer_id)
        if targets:
            self.configuration.assign(peer_id, data.draw(st.sampled_from(targets)))

    @precondition(lambda self: self.configuration.num_peers() > 0)
    @rule(data=st.data())
    def remove_peer(self, data):
        self.configuration.remove_peer(data.draw(st.sampled_from(self.configuration.peer_ids())))

    @precondition(lambda self: self._unassigned())
    @rule(data=st.data())
    def assign(self, data):
        peer_id = data.draw(st.sampled_from(self._unassigned()))
        self.configuration.assign(peer_id, self._any_slot(data))

    @rule()
    def add_cluster(self):
        self.slots_added += 1
        self.configuration.add_cluster(f"x{self.slots_added}")

    @precondition(lambda self: STRANGER not in self.configuration)
    @rule(data=st.data())
    def add_unknown_peer(self, data):
        self.configuration.assign(STRANGER, self._any_slot(data))

    @rule(data=st.data())
    def one_cluster_each(self, data):
        """Every matrix peer in exactly one cluster: one of its own, or a drawn one."""
        for peer_id in self.matrix_peers:
            homes = sorted(self._clusters_of(peer_id), key=repr)
            if len(homes) == 1:
                continue
            if homes:
                self.configuration.remove_peer(peer_id)
                self.configuration.assign(peer_id, data.draw(st.sampled_from(homes)))
            else:
                self.configuration.assign(peer_id, self._any_slot(data))

    # -- invariants ---------------------------------------------------------------

    def _clusters_of(self, peer_id):
        if peer_id not in self.configuration:
            return frozenset()
        return self.configuration.clusters_of(peer_id)

    def _rescanned_columns(self):
        columns = []
        for peer_id in self.matrix_peers:
            clusters = self._clusters_of(peer_id)
            if len(clusters) != 1:
                return None
            columns.append(self.kernel._cluster_index[next(iter(clusters))])
        return np.array(columns) if columns else None

    @invariant()
    def regime_matches_a_rescan(self):
        counts = [len(self._clusters_of(peer_id)) for peer_id in self.matrix_peers]
        np.testing.assert_array_equal(self.kernel._counts_all(), counts)
        assert self.kernel._assigned_rows == sum(count > 0 for count in counts)
        assert self.kernel._irregular_rows == sum(count != 1 for count in counts)
        expected = self._rescanned_columns()
        columns = self.kernel._single_cluster_columns()
        if expected is None:
            assert columns is None
        else:
            np.testing.assert_array_equal(columns, expected)
        untracked = any(
            peer_id not in self.cost_model.matrix.peer_index
            for peer_id in self.configuration.peer_ids()
        )
        assert self.kernel._has_untracked_peers() == untracked

    @invariant()
    def costs_match_the_cost_model(self):
        if self._unassigned():
            # The cost model sums over every network peer; so does the kernel.
            with pytest.raises(UnknownPeerError):
                self.kernel.social_cost()
            return
        # Normalised, as the protocol's cost traces read them.
        assert self.kernel.social_cost(normalized=True) == pytest.approx(
            self.reference.social_cost(self.configuration, normalized=True), abs=1e-9
        )
        assert self.kernel.workload_cost(normalized=True) == pytest.approx(
            self.reference.workload_cost(self.configuration, normalized=True), abs=1e-9
        )

    def _prospective_cost(self, peer_id, cluster_id):
        members = (
            frozenset()
            if cluster_id == NEW_CLUSTER
            else frozenset(self.configuration.members(cluster_id))
        )
        key = (peer_id, members)
        if key not in PROSPECTIVE_COSTS:
            PROSPECTIVE_COSTS[key] = self.reference.prospective_pcost(
                peer_id, cluster_id, self.configuration
            )
        return PROSPECTIVE_COSTS[key]

    @invariant()
    def cost_tables_match_the_cost_model(self):
        if self.kernel._has_untracked_peers():
            return
        clusters = self.configuration.cluster_ids()
        expected = [
            [self._prospective_cost(peer_id, cluster_id) for cluster_id in clusters]
            for peer_id in self.matrix_peers
        ]
        np.testing.assert_allclose(
            self.kernel.cost_table(clusters), expected, rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            self.kernel.new_cluster_costs(),
            [self._prospective_cost(peer_id, NEW_CLUSTER) for peer_id in self.matrix_peers],
            rtol=0,
            atol=1e-9,
        )
        current = self.kernel.current_costs()
        assert set(current) == set(self.configuration.peer_ids())
        for peer_id, cost in current.items():
            assert cost == pytest.approx(
                self.reference.pcost(peer_id, self.configuration), abs=1e-9
            )


class LabelsKernelMachine(KernelMachine):
    backend = "labels"


_SETTINGS = settings(max_examples=25, stateful_step_count=20, deadline=None)
TestDenseKernelMachine = KernelMachine.TestCase
TestDenseKernelMachine.settings = _SETTINGS
TestLabelsKernelMachine = LabelsKernelMachine.TestCase
TestLabelsKernelMachine.settings = _SETTINGS
