"""Tests for equilibrium analysis and the paper's two-peer counterexample."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.game.equilibrium import (
    build_two_peer_counterexample,
    enumerate_single_cluster_configurations,
    find_pure_nash_equilibria,
)
from repro.game.model import ClusterGame


class TestCounterexample:
    def test_requires_positive_alpha(self):
        with pytest.raises(ConfigurationError, match="alpha > 0"):
            build_two_peer_counterexample(alpha=0.0)

    def test_three_distinct_configurations(self, counterexample):
        configurations = counterexample.configurations()
        assert set(configurations) == {"split", "split_mirrored", "together"}

    def test_no_configuration_is_an_equilibrium(self, counterexample):
        assert not counterexample.has_pure_nash_equilibrium()

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.9])
    def test_no_equilibrium_for_small_positive_alpha(self, alpha):
        """The paper's argument (p1 gains alpha/2 + 1 - alpha by joining p2) needs alpha < 2."""
        assert not build_two_peer_counterexample(alpha=alpha).has_pure_nash_equilibrium()

    @pytest.mark.parametrize("alpha", [2.5, 10.0])
    def test_large_alpha_makes_the_split_stable(self, alpha):
        """For alpha > 2 the membership cost dominates and the split configuration is stable.

        The paper states the non-existence "for any value of alpha > 0", but its
        own inequality pcost(p1, c2) = alpha <= pcost(p1, c1) = alpha/2 + 1 only
        yields a strict improvement when alpha < 2; this test documents the
        boundary explicitly.
        """
        assert build_two_peer_counterexample(alpha=alpha).has_pure_nash_equilibrium()

    def test_split_deviation_is_p1_joining_p2(self, counterexample):
        configurations = counterexample.configurations()
        game = ClusterGame(counterexample.cost_model, configurations["split"])
        response = game.best_response("p1")
        assert response.wants_to_move
        assert response.best_cluster == "c2"

    def test_together_deviation_is_p2_leaving(self, counterexample):
        configurations = counterexample.configurations()
        game = ClusterGame(counterexample.cost_model, configurations["together"])
        response = game.best_response("p2")
        assert response.wants_to_move


class TestExhaustiveSearch:
    def test_enumeration_counts(self):
        configurations = enumerate_single_cluster_configurations(["p1", "p2"], ["c1", "c2"])
        assert len(configurations) == 4

    def test_counterexample_has_no_equilibrium_exhaustively(self, counterexample):
        equilibria = find_pure_nash_equilibria(
            counterexample.cost_model, ["p1", "p2"], ["c1", "c2"]
        )
        assert equilibria == []

    def test_tiny_network_has_an_equilibrium(self, tiny_network):
        """With a small membership weight, co-location is a pure Nash equilibrium."""
        cost_model = tiny_network.cost_model(alpha=0.1, use_matrix=False)
        equilibria = find_pure_nash_equilibria(
            cost_model, tiny_network.peer_ids(), ["c1", "c2", "c3"]
        )
        assert equilibria
        assert any(
            len(configuration.nonempty_clusters()) == 1 for configuration in equilibria
        )
