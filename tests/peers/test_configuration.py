"""Tests for ClusterConfiguration (the strategy profile S)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, UnknownClusterError, UnknownPeerError
from repro.peers.configuration import ClusterConfiguration


def build_configuration():
    return ClusterConfiguration(
        ["c1", "c2", "c3"], {"p1": "c1", "p2": "c1", "p3": "c2"}
    )


class TestConstruction:
    def test_duplicate_cluster_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfiguration(["c1", "c1"])

    def test_singletons(self):
        configuration = ClusterConfiguration.singletons(["p1", "p2", "p3"])
        assert configuration.num_nonempty_clusters() == 3
        assert all(size == 1 for size in configuration.sizes().values())

    def test_with_slots(self):
        configuration = ClusterConfiguration.with_slots(4)
        assert len(configuration.cluster_ids()) == 4
        assert configuration.num_nonempty_clusters() == 0
        with pytest.raises(ConfigurationError):
            ClusterConfiguration.with_slots(0)

    def test_assignment_constructor_accepts_iterables(self):
        configuration = ClusterConfiguration(["c1", "c2"], {"p1": ["c1", "c2"]})
        assert configuration.clusters_of("p1") == frozenset({"c1", "c2"})

    def test_copy_is_deep(self):
        configuration = build_configuration()
        duplicate = configuration.copy()
        duplicate.move("p3", "c2", "c3")
        assert configuration.cluster_of("p3") == "c2"
        assert duplicate.cluster_of("p3") == "c3"


class TestMembershipQueries:
    def test_members_and_sizes(self):
        configuration = build_configuration()
        assert configuration.members("c1") == frozenset({"p1", "p2"})
        assert configuration.size("c1") == 2
        assert configuration.sizes() == {"c1": 2, "c2": 1}

    def test_nonempty_and_empty_clusters(self):
        configuration = build_configuration()
        assert configuration.nonempty_clusters() == ["c1", "c2"]
        assert configuration.empty_clusters() == ["c3"]

    def test_cluster_of_and_covered_peers(self):
        configuration = build_configuration()
        assert configuration.cluster_of("p1") == "c1"
        assert configuration.covered_peers("p1") == frozenset({"p1", "p2"})

    def test_cluster_of_requires_single_membership(self):
        configuration = ClusterConfiguration(["c1", "c2"], {"p1": ["c1", "c2"]})
        with pytest.raises(ConfigurationError):
            configuration.cluster_of("p1")

    def test_unknown_lookups_raise(self):
        configuration = build_configuration()
        with pytest.raises(UnknownClusterError):
            configuration.members("nope")
        with pytest.raises(UnknownPeerError):
            configuration.clusters_of("ghost")


class TestMutation:
    def test_assign_twice_rejected(self):
        configuration = build_configuration()
        with pytest.raises(ConfigurationError):
            configuration.assign("p1", "c1")

    def test_move(self):
        configuration = build_configuration()
        configuration.move("p1", "c1", "c2")
        assert configuration.cluster_of("p1") == "c2"
        assert configuration.members("c1") == frozenset({"p2"})

    def test_move_validations(self):
        configuration = build_configuration()
        with pytest.raises(ConfigurationError):
            configuration.move("p1", "c1", "c1")
        with pytest.raises(ConfigurationError):
            configuration.move("p1", "c2", "c3")
        with pytest.raises(UnknownPeerError):
            configuration.move("ghost", "c1", "c2")

    def test_remove_peer(self):
        configuration = build_configuration()
        configuration.remove_peer("p1")
        assert "p1" not in configuration
        assert configuration.members("c1") == frozenset({"p2"})
        with pytest.raises(UnknownPeerError):
            configuration.remove_peer("p1")

    def test_add_cluster(self):
        configuration = build_configuration()
        configuration.add_cluster("c4")
        assert "c4" in configuration.cluster_ids()
        with pytest.raises(ConfigurationError):
            configuration.add_cluster("c1")


class TestAnalysisHelpers:
    def test_partition_and_signature(self):
        configuration = build_configuration()
        partition = configuration.as_partition()
        assert partition == {"c1": frozenset({"p1", "p2"}), "c2": frozenset({"p3"})}
        assert configuration.signature() == (("c1", ("p1", "p2")), ("c2", ("p3",)))

    def test_equality_compares_partitions(self):
        assert build_configuration() == build_configuration()
        other = build_configuration()
        other.move("p3", "c2", "c3")
        assert build_configuration() != other

    def test_membership_matrix(self):
        configuration = build_configuration()
        matrix, clusters = configuration.membership_matrix(["p1", "p2", "p3"])
        assert clusters == ["c1", "c2", "c3"]
        expected = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        assert np.array_equal(matrix, expected)

    def test_membership_matrix_with_explicit_cluster_order(self):
        configuration = build_configuration()
        matrix, clusters = configuration.membership_matrix(["p3"], ["c2"])
        assert clusters == ["c2"]
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == 1.0


class TestRandomMoveProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=20))
    def test_moves_never_lose_peers(self, moves):
        """Applying any sequence of (valid) moves keeps every peer assigned exactly once."""
        peer_ids = [f"p{index}" for index in range(6)]
        configuration = ClusterConfiguration.singletons(peer_ids)
        cluster_ids = configuration.cluster_ids()
        for step, choice in enumerate(moves):
            peer_id = peer_ids[step % len(peer_ids)]
            source = configuration.cluster_of(peer_id)
            target = cluster_ids[choice % len(cluster_ids)]
            if target == source:
                continue
            configuration.move(peer_id, source, target)
            assert configuration.cluster_of(peer_id) == target
        assert sorted(configuration.peer_ids()) == sorted(peer_ids)
        assert sum(configuration.sizes().values()) == len(peer_ids)


class RecordingListener:
    """Collects configuration mutation callbacks for assertions."""

    def __init__(self):
        self.events = []

    def configuration_assigned(self, peer_id, cluster_id):
        self.events.append(("assign", peer_id, cluster_id))

    def configuration_unassigned(self, peer_id, cluster_id):
        self.events.append(("unassign", peer_id, cluster_id))

    def configuration_cluster_added(self, cluster_id):
        self.events.append(("cluster", cluster_id))


class TestListeners:
    def test_assign_move_remove_notify_in_order(self):
        configuration = build_configuration()
        listener = RecordingListener()
        configuration.add_listener(listener)
        configuration.assign("p9", "c3")
        configuration.move("p9", "c3", "c2")
        configuration.remove_peer("p9")
        configuration.add_cluster("c4")
        assert listener.events == [
            ("assign", "p9", "c3"),
            ("unassign", "p9", "c3"),
            ("assign", "p9", "c2"),
            ("unassign", "p9", "c2"),
            ("cluster", "c4"),
        ]

    def test_remove_listener(self):
        configuration = build_configuration()
        listener = RecordingListener()
        configuration.add_listener(listener)
        configuration.remove_listener(listener)
        configuration.assign("p9", "c3")
        assert listener.events == []

    def test_dead_listeners_are_pruned(self):
        import gc

        configuration = build_configuration()
        configuration.add_listener(RecordingListener())
        gc.collect()
        configuration.assign("p9", "c3")  # prunes the dead weakref
        assert configuration._listeners == []

    def test_copy_does_not_inherit_listeners(self):
        configuration = build_configuration()
        listener = RecordingListener()
        configuration.add_listener(listener)
        duplicate = configuration.copy()
        duplicate.assign("p9", "c1")
        assert listener.events == []


class TestCoveredPeersFastPath:
    def test_single_cluster_peer_reuses_the_member_view(self):
        configuration = build_configuration()
        peer = configuration.peer_ids()[0]
        (cluster_id,) = configuration.clusters_of(peer)
        assert configuration.covered_peers(peer) is configuration.members(cluster_id)

    def test_multi_cluster_peer_unions_members(self):
        configuration = build_configuration()
        peer = configuration.peer_ids()[0]
        (current,) = configuration.clusters_of(peer)
        other = next(c for c in configuration.cluster_ids() if c != current)
        configuration.assign(peer, other)
        covered = configuration.covered_peers(peer)
        assert covered == configuration.members(current) | configuration.members(other)


class TestListenerCacheConsistency:
    def test_partition_caches_survive_listener_reads_during_remove(self):
        """A listener reading the caches mid-remove_peer must not freeze stale state."""

        class Snooper:
            def __init__(self, configuration):
                self.configuration = configuration

            def configuration_unassigned(self, peer_id, cluster_id):
                # Repopulates the partition caches between the per-cluster removals.
                self.configuration.empty_clusters()
                self.configuration.nonempty_clusters()

        configuration = ClusterConfiguration(["c1", "c2"], {"p0": "c1"})
        configuration.assign("p0", "c2")  # p0 is the only member of both clusters
        snooper = Snooper(configuration)
        configuration.add_listener(snooper)
        configuration.remove_peer("p0")
        assert configuration.empty_clusters() == ["c1", "c2"]
        assert configuration.nonempty_clusters() == []


# One operation of a random mutation sequence: (kind, peer index, cluster index).
_OPERATIONS = st.tuples(
    st.sampled_from(("assign", "move", "remove_peer", "add_cluster")),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=20),
)


class TestIncrementalSlotLists:
    def test_cached_sort_orders_are_not_shared_with_callers(self):
        configuration = ClusterConfiguration(["c1"], {"b": "c1", "a": "c1"})
        configuration.peer_ids().append("zzz")
        assert configuration.peer_ids() == ["a", "b"]
        assert configuration.signature() == (("c1", ("a", "b")),)

    @staticmethod
    def _rescan(configuration):
        slots = sorted(configuration._clusters, key=repr)
        nonempty = [c for c in slots if configuration.cluster(c).size > 0]
        empty = [c for c in slots if configuration.cluster(c).size == 0]
        return nonempty, empty

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_OPERATIONS, max_size=40))
    def test_slot_lists_equal_a_full_rescan_after_every_step(self, operations):
        # Slot ids whose repr order differs from their creation order.
        configuration = ClusterConfiguration(["c2", "c10", "c1"], {"p0": "c10"})
        added = 0
        for kind, peer_index, cluster_index in operations:
            peer_id = f"p{peer_index}"
            slots = configuration.cluster_ids()
            cluster_id = slots[cluster_index % len(slots)]
            if kind == "assign":
                if peer_id in configuration and cluster_id in configuration.clusters_of(peer_id):
                    continue
                configuration.assign(peer_id, cluster_id)
            elif kind == "move":
                if peer_id not in configuration:
                    continue
                source = sorted(configuration.clusters_of(peer_id), key=repr)[0]
                if cluster_id in configuration.clusters_of(peer_id):
                    continue
                configuration.move(peer_id, source, cluster_id)
            elif kind == "remove_peer":
                if peer_id not in configuration:
                    continue
                configuration.remove_peer(peer_id)
            else:
                added += 1
                configuration.add_cluster(f"c{cluster_index}x{added}")
            nonempty, empty = self._rescan(configuration)
            assert configuration.nonempty_clusters() == nonempty
            assert configuration.empty_clusters() == empty
            assert configuration.num_nonempty_clusters() == len(nonempty)
            assert configuration.num_memberships() == sum(
                configuration.size(c) for c in nonempty
            )
            # The cached sort orders equal a fresh sort.
            assert configuration.signature() == tuple(
                (c, tuple(sorted(configuration.members(c), key=repr))) for c in nonempty
            )
            assert configuration.peer_ids() == sorted(
                {p for c in nonempty for p in configuration.members(c)}, key=repr
            )
