"""Tests for the routers' target-cluster policies.

The cid-annotated results the targets lead to are tested with the
observation path in ``tests/traffic/test_observation.py``.
"""

from __future__ import annotations

import re

import pytest

from repro.errors import ConfigurationError
from repro.overlay.routing import BroadcastRouter, ProbeKRouter, build_router


class TestBroadcastRouter:
    def test_reaches_all_nonempty_clusters(self, tiny_network, tiny_configuration):
        router = BroadcastRouter(tiny_network)
        assert router.target_clusters("alice", tiny_configuration) == ["c1", "c2"]

    def test_build_router_by_registered_name(self, tiny_network, tiny_configuration):
        router = build_router("probe-k", tiny_network, k=2)
        assert isinstance(router, ProbeKRouter)
        assert router.target_clusters("bob", tiny_configuration) == ["c2", "c1"]


class TestProbeKRouter:
    @pytest.mark.parametrize("k", [0, -2, 1.5, True, "2"])
    def test_k_must_be_positive(self, tiny_network, k):
        with pytest.raises(ConfigurationError, match=re.escape(f"integer >= 1, got {k!r}")):
            ProbeKRouter(tiny_network, k=k)

    def test_k1_only_reaches_own_cluster(self, tiny_network, tiny_configuration):
        router = ProbeKRouter(tiny_network, k=1)
        assert router.target_clusters("alice", tiny_configuration) == ["c1"]

    def test_k2_adds_largest_other_cluster(self, tiny_network, tiny_configuration):
        router = ProbeKRouter(tiny_network, k=2)
        assert router.target_clusters("bob", tiny_configuration) == ["c2", "c1"]

    def test_equal_size_clusters_tie_break_by_repr(self, tiny_network):
        # Three singleton clusters: every "other" cluster ties on size, so
        # the deterministic (-size, repr) order decides which ones k probes.
        from repro.peers.configuration import ClusterConfiguration

        singletons = ClusterConfiguration(
            ["c3", "c2", "c1"], {"alice": "c3", "bob": "c2", "carol": "c1"}
        )
        router = ProbeKRouter(tiny_network, k=2)
        assert router.target_clusters("alice", singletons) == ["c3", "c1"]
        assert router.target_clusters("carol", singletons) == ["c1", "c2"]
        assert ProbeKRouter(tiny_network, k=3).target_clusters("alice", singletons) == [
            "c3",
            "c1",
            "c2",
        ]

    def test_larger_clusters_win_over_repr(self, tiny_network, tiny_configuration):
        # c1 (two members) outranks the repr-smaller singleton c2.
        router = ProbeKRouter(tiny_network, k=2)
        assert router.target_clusters("bob", tiny_configuration) == ["c2", "c1"]
