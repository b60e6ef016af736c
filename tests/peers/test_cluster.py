"""Tests for the Cluster class (membership and its member order)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.peers.cluster import Cluster


class TestMembership:
    def test_add_and_remove(self):
        cluster = Cluster("c1")
        cluster.add("p1")
        cluster.add("p2")
        assert cluster.size == 2
        assert "p1" in cluster
        cluster.remove("p1")
        assert cluster.size == 1
        assert "p1" not in cluster

    def test_remove_non_member_raises(self):
        with pytest.raises(ConfigurationError):
            Cluster("c1").remove("ghost")

    def test_is_empty(self):
        cluster = Cluster("c1")
        assert cluster.is_empty
        cluster.add("p1")
        assert not cluster.is_empty

    def test_members_view_is_immutable_snapshot(self):
        cluster = Cluster("c1", ["p1"])
        members = cluster.members
        cluster.add("p2")
        assert members == frozenset({"p1"})

    def test_iteration_is_sorted(self):
        cluster = Cluster("c1", ["p2", "p1", "p3"])
        assert list(cluster) == ["p1", "p2", "p3"]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 12)), max_size=40))
    def test_sorted_members_follow_every_add_and_remove(self, operations):
        """The cached order equals a fresh sort after every mutation, also for ids whose repr ties."""

        class Tied:
            def __init__(self, number):
                self.number = number

            def __repr__(self):
                return f"peer{self.number // 3}"

        pool = [Tied(number) for number in range(13)]
        cluster = Cluster("c1", pool[:2])
        for add, number in operations:
            if add:
                cluster.add(pool[number])
            elif pool[number] in cluster:
                cluster.remove(pool[number])
            ordered = cluster.sorted_members()
            assert set(ordered) == set(cluster.members) and len(ordered) == cluster.size
            assert [repr(peer) for peer in ordered] == sorted(map(repr, cluster.members))
