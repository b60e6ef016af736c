"""The ``labels`` backend's move updates, and which backend a kernel runs.

A ``labels`` kernel and ``tests/game_oracle.py``'s :class:`FullWidthKernel`,
which applies every move to whole covered columns, absorb the same 200
random membership operations (moves, multi-membership assigns, removals,
re-adds); their state and every public answer must stay ``==``, not just
close.  Parity of both backends with the per-query
:class:`~repro.core.costs.CostModel` is the kernel state machine's job
(``tests/game/test_kernel_state_machine.py``).
"""

from __future__ import annotations

import random

import numpy as np

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

        def assert_identical():
            assert np.array_equal(reach.cost_table(clusters), full.cost_table(clusters))
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
