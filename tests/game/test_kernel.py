"""Parity and incremental-maintenance tests for the best-response kernel.

Two pillars:

* **exact parity** — on the Table 1 / Figure 1 scenarios (all three data
  distributions, quick scale) every kernel-evaluated cost matches the exact
  per-query reference :class:`~repro.core.costs.CostModel` (no matrix, no
  kernel) within 1e-9;
* **incremental = rebuilt** — after hundreds of random assign/move/remove
  operations the kernel's live state equals a freshly rebuilt one.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.costs import NEW_CLUSTER
from repro.datasets.scenarios import (
    SCENARIO_DIFFERENT_CATEGORY,
    SCENARIO_SAME_CATEGORY,
    SCENARIO_UNIFORM,
    build_scenario,
    initial_configuration,
)
from repro.errors import UnknownPeerError
from repro.experiments.config import ExperimentConfig
from repro.game.kernel import BestResponseKernel
from repro.game.model import ClusterGame
from tests.conftest import BACKEND_MODES, cost_model_in_mode
from tests.game_oracle import TableGame

#: The Table 1 / Figure 1 data distributions.
SCENARIOS = (SCENARIO_SAME_CATEGORY, SCENARIO_DIFFERENT_CATEGORY, SCENARIO_UNIFORM)


def build_setup(scenario_name: str, initial: str = "random", backend: str = "dense"):
    config = ExperimentConfig.quick()
    data = build_scenario(scenario_name, config.scenario)
    configuration = initial_configuration(data, initial, seed=config.seed + 13)
    fast_model = cost_model_in_mode(
        data.network, BACKEND_MODES[backend], theta=config.theta(), alpha=config.alpha
    )
    exact_model = data.network.cost_model(
        theta=config.theta(), alpha=config.alpha, use_matrix=False
    )
    return data, configuration, fast_model, exact_model


@pytest.mark.parametrize("backend", ["dense", "labels"])
class TestExactParity:
    """Kernel costs == exact per-query reference on the paper's scenarios.

    Parametrized over both kernel backends (each on the recall matrix form
    it runs on): the factored segmented reductions must satisfy the same
    1e-9 contract against the exact reference as the dense ``W @ M`` product.
    """

    @pytest.mark.parametrize("scenario_name", SCENARIOS)
    def test_cost_table_matches_exact_prospective_costs(self, scenario_name, backend):
        data, configuration, fast_model, exact_model = build_setup(scenario_name, backend=backend)
        kernel = BestResponseKernel(fast_model, configuration)
        assert kernel.backend == backend
        candidates = configuration.nonempty_clusters()
        table = kernel.cost_table(candidates)
        for row, peer_id in enumerate(kernel.peer_order):
            for column, cluster_id in enumerate(candidates):
                exact = exact_model.prospective_pcost(peer_id, cluster_id, configuration)
                assert table[row, column] == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("scenario_name", SCENARIOS)
    def test_new_cluster_and_current_costs_match_exact_reference(self, scenario_name, backend):
        data, configuration, fast_model, exact_model = build_setup(scenario_name, backend=backend)
        kernel = BestResponseKernel(fast_model, configuration)
        assert kernel.backend == backend
        new_costs = kernel.new_cluster_costs()
        current = kernel.current_costs()
        for row, peer_id in enumerate(kernel.peer_order):
            exact_new = exact_model.prospective_pcost(peer_id, NEW_CLUSTER, configuration)
            assert new_costs[row] == pytest.approx(exact_new, abs=1e-9)
            assert current[peer_id] == pytest.approx(
                exact_model.pcost(peer_id, configuration), abs=1e-9
            )

    @pytest.mark.parametrize("initial", ["singletons", "random", "fewer"])
    def test_best_responses_match_exact_per_peer_reference(self, initial, backend):
        data, configuration, fast_model, exact_model = build_setup(
            SCENARIO_SAME_CATEGORY, initial, backend
        )
        fast_game = ClusterGame(fast_model, configuration)
        exact_game = ClusterGame(exact_model, configuration)
        responses = fast_game.best_responses()
        assert fast_game.kernel is not None
        assert exact_game.kernel is None
        for peer_id in configuration.peer_ids():
            exact = exact_game.best_response(peer_id)
            assert responses[peer_id].best_cluster == exact.best_cluster
            assert responses[peer_id].best_cost == pytest.approx(exact.best_cost, abs=1e-9)
            assert responses[peer_id].gain == pytest.approx(exact.gain, abs=1e-9)

    def test_social_cost_matches_exact_reference(self, backend):
        data, configuration, fast_model, exact_model = build_setup(
            SCENARIO_SAME_CATEGORY, backend=backend
        )
        kernel = BestResponseKernel(fast_model, configuration)
        assert kernel.social_cost(normalized=True) == pytest.approx(
            exact_model.social_cost(configuration, normalized=True), abs=1e-9
        )

    @pytest.mark.parametrize("scenario_name", SCENARIOS)
    @pytest.mark.parametrize("initial", ["singletons", "random", "category"])
    def test_workload_cost_matches_exact_reference(self, scenario_name, initial, backend):
        """The vectorized, share-weighted workload cost == the per-peer reference loop."""
        if scenario_name == SCENARIO_UNIFORM and initial == "category":
            pytest.skip("uniform scenario has no per-peer categories")
        data, configuration, fast_model, exact_model = build_setup(
            scenario_name, initial, backend
        )
        kernel = BestResponseKernel(fast_model, configuration)
        for normalized in (False, True):
            assert kernel.workload_cost(normalized=normalized) == pytest.approx(
                exact_model.workload_cost(configuration, normalized=normalized), abs=1e-9
            )

    def test_workload_cost_stays_exact_across_incremental_moves(self, backend):
        """``CW`` is maintained through moves; the workload cost never drifts from the reference."""
        data, configuration, fast_model, exact_model = build_setup(
            SCENARIO_SAME_CATEGORY, backend=backend
        )
        kernel = BestResponseKernel(fast_model, configuration)
        rng = random.Random(7)
        peers = list(configuration.peer_ids())
        for _step in range(25):
            peer_id = rng.choice(peers)
            source = next(iter(configuration.clusters_of(peer_id)))
            targets = [c for c in configuration.cluster_ids() if c != source]
            configuration.move(peer_id, source, rng.choice(targets))
            assert kernel.workload_cost(normalized=True) == pytest.approx(
                exact_model.workload_cost(configuration, normalized=True), abs=1e-9
            )

    def test_workload_cost_falls_back_outside_the_single_cluster_regime(self, backend):
        data, configuration, fast_model, exact_model = build_setup(
            SCENARIO_SAME_CATEGORY, backend=backend
        )
        kernel = BestResponseKernel(fast_model, configuration)
        peer_id = configuration.peer_ids()[0]
        other = [
            c
            for c in configuration.cluster_ids()
            if c not in configuration.clusters_of(peer_id)
        ][0]
        configuration.assign(peer_id, other)  # multi-membership: vector path is off
        assert kernel.workload_cost(normalized=True) == pytest.approx(
            fast_model.workload_cost(configuration, normalized=True), abs=1e-12
        )

    def test_kernel_table_matches_reference_table_path(self, backend):
        """Kernel cost table and best responses == the rebuild-everything table."""
        data, configuration, fast_model, _ = build_setup(SCENARIO_SAME_CATEGORY, backend=backend)
        kernel_game = ClusterGame(fast_model, configuration)
        table_game = TableGame(fast_model, configuration)
        peer_order, table_clusters, reference_table = table_game.prospective_cost_table()
        assert table_clusters == configuration.nonempty_clusters()
        assert peer_order == kernel_game.kernel.peer_order
        np.testing.assert_allclose(
            kernel_game.kernel.cost_table(table_clusters), reference_table, atol=1e-9
        )
        assert NEW_CLUSTER in kernel_game.candidate_clusters()
        kernel_responses = kernel_game.best_responses()
        table_responses = table_game.best_responses()
        assert set(kernel_responses) == set(table_responses)
        for peer_id, response in kernel_responses.items():
            reference = table_responses[peer_id]
            assert response.best_cluster == reference.best_cluster
            assert response.best_cost == pytest.approx(reference.best_cost, abs=1e-9)


def assert_same_membership(kernel, rebuilt):
    """The label vector, per-row counts and overflow sets equal a rebuild's."""
    np.testing.assert_array_equal(kernel._labels, rebuilt._labels)
    np.testing.assert_array_equal(kernel._counts, rebuilt._counts)
    assert kernel._overflow == rebuilt._overflow


class TestIncrementalMaintenance:
    """Listener-driven updates keep the caches equal to a full rebuild."""

    def test_randomized_mixed_operations_match_rebuilt_state(self, small_scenario):
        configuration = small_scenario.network.singleton_configuration()
        cost_model = small_scenario.network.cost_model()
        kernel = BestResponseKernel(cost_model, configuration)
        rng = random.Random(1234)
        peer_pool = list(configuration.peer_ids())
        removed = []

        for _step in range(200):
            operation = rng.choice(["move", "move", "move", "assign", "remove"])
            if operation == "remove" and len(peer_pool) > 4:
                peer_id = rng.choice(peer_pool)
                peer_pool.remove(peer_id)
                removed.append(peer_id)
                configuration.remove_peer(peer_id)
            elif operation == "assign" and removed:
                peer_id = removed.pop(rng.randrange(len(removed)))
                peer_pool.append(peer_id)
                configuration.assign(peer_id, rng.choice(configuration.cluster_ids()))
            else:
                peer_id = rng.choice(peer_pool)
                source = rng.choice(sorted(configuration.clusters_of(peer_id), key=repr))
                targets = [c for c in configuration.cluster_ids() if c != source]
                configuration.move(peer_id, source, rng.choice(targets))

        rebuilt = BestResponseKernel(cost_model, configuration)
        assert_same_membership(kernel, rebuilt)
        np.testing.assert_allclose(kernel._sizes, rebuilt._sizes, atol=1e-9)
        np.testing.assert_allclose(kernel._CW, rebuilt._CW, atol=1e-9)

        candidates = configuration.nonempty_clusters()
        incremental, _ = kernel.best_response_all(candidate_clusters=candidates)
        fresh, _ = rebuilt.best_response_all(candidate_clusters=candidates)
        assert set(incremental) == set(fresh)
        for peer_id, response in incremental.items():
            assert response.best_cluster == fresh[peer_id].best_cluster
            assert response.best_cost == pytest.approx(fresh[peer_id].best_cost, abs=1e-9)

    def test_rebuild_resets_incremental_state(self, small_scenario):
        configuration = small_scenario.network.singleton_configuration()
        cost_model = small_scenario.network.cost_model()
        kernel = BestResponseKernel(cost_model, configuration)
        peer_id = configuration.peer_ids()[0]
        source = next(iter(configuration.clusters_of(peer_id)))
        target = [c for c in configuration.cluster_ids() if c != source][0]
        configuration.move(peer_id, source, target)
        kernel.rebuild()
        rebuilt = BestResponseKernel(cost_model, configuration)
        assert_same_membership(kernel, rebuilt)
        np.testing.assert_allclose(kernel._CW, rebuilt._CW, atol=1e-12)

    def test_added_cluster_slot_gets_a_column(self, tiny_network, tiny_configuration):
        kernel = BestResponseKernel(tiny_network.cost_model(), tiny_configuration)
        tiny_configuration.add_cluster("c9")
        tiny_configuration.move("bob", "c2", "c9")
        rebuilt = BestResponseKernel(tiny_network.cost_model(), tiny_configuration)
        assert kernel._cluster_order == rebuilt._cluster_order
        np.testing.assert_allclose(kernel._CW, rebuilt._CW, atol=1e-12)

    def test_unknown_peer_marks_kernel_stale(self, tiny_network, tiny_configuration):
        kernel = BestResponseKernel(tiny_network.cost_model(), tiny_configuration)
        assert not kernel.stale
        tiny_configuration.assign("mallory", "c3")
        assert kernel.stale

    def test_stale_kernel_is_bypassed_by_the_game(self, tiny_network, tiny_configuration):
        game = ClusterGame(tiny_network.cost_model(), tiny_configuration)
        assert game.kernel is not None
        tiny_configuration.assign("mallory", "c3")
        assert game.kernel is None
        # The per-peer path answers for the known peers.
        assert game.best_response("alice").peer_id == "alice"

    @pytest.mark.parametrize("kernel_state", ["stale", "live"])
    def test_unknown_peer_fails_best_responses_either_way(
        self, tiny_network, tiny_configuration, kernel_state
    ):
        """A peer the recall matrix does not know is named, never silently dropped."""
        game = ClusterGame(tiny_network.cost_model(), tiny_configuration)
        if kernel_state == "stale":
            assert game.kernel is not None  # built before mallory arrives
        tiny_configuration.assign("mallory", "c3")
        assert (game.kernel is None) == (kernel_state == "stale")
        with pytest.raises(UnknownPeerError, match="mallory"):
            game.best_responses()


class TestListenerLifecycle:
    def test_discarded_kernel_is_garbage_collected_from_listeners(
        self, tiny_network, tiny_configuration
    ):
        import gc

        kernel = BestResponseKernel(tiny_network.cost_model(), tiny_configuration)
        assert len(tiny_configuration._listeners) == 1
        del kernel
        gc.collect()
        tiny_configuration.move("bob", "c2", "c3")  # prunes dead references
        assert len(tiny_configuration._listeners) == 0

    def test_listener_list_stays_bounded_under_kernel_churn(
        self, tiny_network, tiny_configuration
    ):
        """Creating/discarding many kernels must not grow the listener list.

        Registration prunes dead weakrefs, so even without any intervening
        mutation (the other prune point) the list stays bounded by the number
        of live listeners.
        """
        import gc

        cost_model = tiny_network.cost_model()
        for round_index in range(50):
            kernel = BestResponseKernel(cost_model, tiny_configuration)
            if round_index % 10 == 0:  # interleave some real churn
                tiny_configuration.move("bob", "c2", "c3")
                tiny_configuration.move("bob", "c3", "c2")
            del kernel
            gc.collect()
            assert len(tiny_configuration._listeners) <= 1

    def test_detach_stops_updates(self, tiny_network, tiny_configuration):
        kernel = BestResponseKernel(tiny_network.cost_model(), tiny_configuration)
        sizes_before = kernel._sizes.copy()
        kernel.detach()
        tiny_configuration.move("bob", "c2", "c3")
        np.testing.assert_array_equal(kernel._sizes, sizes_before)


class TestUntrackedPeers:
    """Peers the recall matrix does not know fall back to the reference path."""

    def test_untracked_peer_at_construction_goes_to_fallback(
        self, tiny_network, tiny_configuration
    ):
        tiny_configuration.assign("mallory", "c3")  # unknown to the matrix
        kernel = BestResponseKernel(tiny_network.cost_model(), tiny_configuration)
        _, fallback = kernel.best_response_all(
            candidate_clusters=tiny_configuration.nonempty_clusters()
        )
        assert "mallory" in fallback
        _, deviation_fallback = kernel.best_deviation(
            candidate_clusters=tiny_configuration.nonempty_clusters()
        )
        assert "mallory" in deviation_fallback

    def test_rebuild_keeps_kernel_stale_while_untracked_peers_remain(
        self, tiny_network, tiny_configuration
    ):
        kernel = BestResponseKernel(tiny_network.cost_model(), tiny_configuration)
        tiny_configuration.assign("mallory", "c3")
        assert kernel.stale
        kernel.rebuild()
        assert kernel.stale  # mallory is still there
        tiny_configuration.remove_peer("mallory")
        kernel.rebuild()
        assert not kernel.stale
