"""Randomized incremental parity: ``labels`` backend vs ``dense`` backend.

Both kernels listen on the *same* configuration, one over a factored and
one over a dense recall matrix of the same network, and absorb the same 200
random membership operations (moves, multi-membership assigns, removals,
re-adds); after every batch each public API must agree to 1e-9 absolute,
the same contract as the exact-reference parity suite.

Only public APIs are exercised — the backends share no covered-recall
representation (there is no |P| x |C| matrix in the labels kernel to
compare), so parity on costs, tables and responses is the whole contract.

The same churn also drives a ``labels`` kernel against
``tests/game_oracle.py``'s :class:`FullWidthKernel`, which applies every
move to whole covered columns: there the contract is ``==``, not 1e-9.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.datasets.scenarios import (
    SCENARIO_SAME_CATEGORY,
    build_scenario,
    initial_configuration,
)
from repro.core.recall_matrix import WeightedRecallMatrix
from repro.experiments.config import ExperimentConfig
from repro.game.kernel import BestResponseKernel
from tests.conftest import cost_model_in_mode
from tests.game_oracle import FullWidthKernel


def build_pair():
    config = ExperimentConfig.quick()
    data = build_scenario(SCENARIO_SAME_CATEGORY, config.scenario)
    configuration = initial_configuration(data, "random", seed=config.seed + 13)
    options = {"theta": config.theta(), "alpha": config.alpha}
    dense = BestResponseKernel(
        cost_model_in_mode(data.network, "dense", **options), configuration
    )
    labels = BestResponseKernel(
        cost_model_in_mode(data.network, "factored", **options), configuration
    )
    assert (dense.backend, labels.backend) == ("dense", "labels")
    return configuration, dense, labels


def assert_parity(dense, labels, configuration, *, atol=1e-9):
    candidates = configuration.nonempty_clusters()
    np.testing.assert_allclose(
        labels.cost_table(candidates), dense.cost_table(candidates), rtol=0.0, atol=atol
    )
    np.testing.assert_allclose(
        labels.new_cluster_costs(), dense.new_cluster_costs(), rtol=0.0, atol=atol
    )
    dense_current = dense.current_costs()
    for peer_id, cost in labels.current_costs().items():
        assert cost == pytest.approx(dense_current[peer_id], abs=atol)
    # Aggregate costs iterate the matrix peer order, so they are only defined
    # while every matrix peer is still assigned (same for both backends).
    if set(configuration.peer_ids()) >= set(dense.peer_order):
        for normalized in (False, True):
            assert labels.social_cost(normalized=normalized) == pytest.approx(
                dense.social_cost(normalized=normalized), abs=atol
            )
            assert labels.workload_cost(normalized=normalized) == pytest.approx(
                dense.workload_cost(normalized=normalized), abs=atol
            )
    dense_responses, _ = dense.best_response_all(candidate_clusters=candidates)
    labels_responses, _ = labels.best_response_all(candidate_clusters=candidates)
    assert set(labels_responses) == set(dense_responses)
    for peer_id, response in labels_responses.items():
        assert response.best_cost == pytest.approx(
            dense_responses[peer_id].best_cost, abs=atol
        )


def churn(configuration, rng, steps, check_every, on_check):
    """Drive *steps* random membership ops, calling *on_check* periodically."""
    peer_pool = list(configuration.peer_ids())
    removed = []
    for step in range(1, steps + 1):
        operation = rng.choice(["move", "move", "move", "extra", "remove", "readd"])
        if operation == "remove" and len(peer_pool) > 4:
            peer_id = rng.choice(peer_pool)
            peer_pool.remove(peer_id)
            removed.append(peer_id)
            configuration.remove_peer(peer_id)
        elif operation == "readd" and removed:
            peer_id = removed.pop(rng.randrange(len(removed)))
            peer_pool.append(peer_id)
            configuration.assign(peer_id, rng.choice(configuration.cluster_ids()))
        elif operation == "extra":
            # Multi-membership: overflow entries in the labels backend.
            peer_id = rng.choice(peer_pool)
            targets = [
                c
                for c in configuration.cluster_ids()
                if c not in configuration.clusters_of(peer_id)
            ]
            if targets:
                configuration.assign(peer_id, rng.choice(targets))
        else:
            peer_id = rng.choice(peer_pool)
            source = rng.choice(sorted(configuration.clusters_of(peer_id), key=repr))
            targets = [
                c
                for c in configuration.cluster_ids()
                if c not in configuration.clusters_of(peer_id)
            ]
            if targets:
                configuration.move(peer_id, source, rng.choice(targets))
        if step % check_every == 0:
            on_check()


class TestRandomizedBackendParity:
    def test_float64_parity_across_200_random_operations(self):
        configuration, dense, labels = build_pair()
        labels.global_covered()  # materialise CV so the updates maintain it too
        dense.global_covered()
        rng = random.Random(20260808)
        churn(
            configuration,
            rng,
            steps=200,
            check_every=25,
            on_check=lambda: assert_parity(dense, labels, configuration, atol=1e-9),
        )
        assert_parity(dense, labels, configuration, atol=1e-9)
        # Cross-check the incrementally maintained state against rebuilds.
        rebuilt = BestResponseKernel(labels.cost_model, configuration)
        assert rebuilt.backend == "labels"
        assert_parity(rebuilt, labels, configuration, atol=1e-9)


class TestReachBoundedMoves:
    def test_labels_updates_equal_full_width_updates_exactly(self):
        config = ExperimentConfig.quick()
        data = build_scenario(SCENARIO_SAME_CATEGORY, config.scenario)
        configuration = initial_configuration(data, "random", seed=config.seed + 13)
        model = cost_model_in_mode(
            data.network, "factored", theta=config.theta(), alpha=config.alpha
        )
        reach = BestResponseKernel(model, configuration)
        full = FullWidthKernel(model, configuration)
        clusters = configuration.cluster_ids()
        for kernel in (reach, full):
            kernel.cost_table(clusters)  # every CW column live
            kernel.global_covered()  # the CV columns of the nonempty clusters

        def assert_identical():
            assert np.array_equal(reach.cost_table(clusters), full.cost_table(clusters))
            assert np.array_equal(reach.global_covered(), full.global_covered())
            assert reach.current_costs() == full.current_costs()
            # Aggregate costs are defined only while every matrix peer is assigned.
            if set(configuration.peer_ids()) < set(reach.peer_order):
                return
            for normalized in (False, True):
                assert reach.social_cost(normalized=normalized) == full.social_cost(
                    normalized=normalized
                )
                assert reach.workload_cost(normalized=normalized) == full.workload_cost(
                    normalized=normalized
                )

        churn(
            configuration,
            random.Random(20261019),
            steps=200,
            check_every=25,
            on_check=assert_identical,
        )
        # Churn leaves peers out or in several clusters, where the costs come
        # from the cost model.  One cluster per peer puts them back on the
        # kernel's vectorized path, which reads the updated columns.
        for peer_id in reach.peer_order:
            homes = sorted(configuration.clusters_of(peer_id)) if peer_id in configuration else []
            if len(homes) == 1:
                continue
            if homes:
                configuration.remove_peer(peer_id)
            configuration.assign(peer_id, homes[0] if homes else clusters[0])
        assert all(len(configuration.clusters_of(p)) == 1 for p in reach.peer_order)
        assert_identical()


class TestBackendSelection:
    def test_auto_resolves_by_population(self, tiny_network, tiny_configuration):
        kernel = BestResponseKernel(tiny_network.cost_model(), tiny_configuration)
        assert kernel.backend == "dense"  # 3 peers < FACTORED_THRESHOLD

    def test_auto_threshold_is_configurable(
        self, tiny_network, tiny_configuration, monkeypatch
    ):
        monkeypatch.setattr(WeightedRecallMatrix, "FACTORED_THRESHOLD", 1)
        kernel = BestResponseKernel(tiny_network.cost_model(), tiny_configuration)
        assert kernel.backend == "labels"

    def test_repr_names_backend(self, tiny_network, tiny_configuration):
        kernel = BestResponseKernel(
            cost_model_in_mode(tiny_network, "factored"), tiny_configuration
        )
        assert "labels" in repr(kernel)
