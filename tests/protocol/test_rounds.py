"""Tests for one two-phase protocol round (serve phase, lock rule, cluster creation)."""

from __future__ import annotations


from repro.core.costs import NEW_CLUSTER
from repro.overlay.messages import MessageBus
from repro.peers.configuration import ClusterConfiguration
from repro.protocol.rounds import execute_round
from repro.strategies.base import RelocationProposal


def proposal(peer, source, target, gain):
    return RelocationProposal(peer_id=peer, source_cluster=source, target_cluster=target, gain=gain)


def build_configuration():
    return ClusterConfiguration(
        ["c1", "c2", "c3", "c4"], {"p1": "c1", "p2": "c1", "p3": "c2", "p4": "c3"}
    )


class TestQuiescence:
    def test_no_proposals_means_quiescent(self):
        configuration = build_configuration()
        result = execute_round(configuration, {})
        assert result.quiescent
        assert result.num_granted == 0

    def test_stay_proposals_do_not_trigger_requests(self):
        configuration = build_configuration()
        result = execute_round(
            configuration, {"p1": proposal("p1", "c1", "c1", 0.0)}
        )
        assert result.quiescent


class TestGranting:
    def test_highest_gain_granted_first_and_locks_applied(self):
        configuration = build_configuration()
        proposals = {
            # c2's request has the highest gain and is granted first: p3 joins c1.
            # That locks c2 against joins (p3 left it) and c1 against leaves
            # (p3 joined it) for the rest of the round.
            "p3": proposal("p3", "c2", "c1", 0.9),
            # c1's request would take p1 out of c1, which is now leave-locked.
            "p1": proposal("p1", "c1", "c3", 0.5),
            # c3's request would put p4 into c2, which is now join-locked.
            "p4": proposal("p4", "c3", "c2", 0.4),
        }
        result = execute_round(configuration, proposals)
        granted_peers = {move.peer_id for move in result.granted}
        assert granted_peers == {"p3"}
        assert configuration.cluster_of("p3") == "c1"
        assert configuration.cluster_of("p1") == "c1"
        assert configuration.cluster_of("p4") == "c3"
        assert len(result.discarded) == 2

    def test_independent_moves_are_all_granted(self):
        configuration = ClusterConfiguration(
            ["c1", "c2", "c3", "c4"], {"p1": "c1", "p2": "c2", "p3": "c3", "p4": "c4"}
        )
        proposals = {
            "p1": proposal("p1", "c1", "c2", 0.9),
            "p3": proposal("p3", "c3", "c4", 0.8),
        }
        result = execute_round(configuration, proposals)
        assert result.num_granted == 2

    def test_threshold_suppresses_small_gains(self):
        configuration = build_configuration()
        result = execute_round(
            configuration,
            {"p3": proposal("p3", "c2", "c1", 0.0005)},
            gain_threshold=0.001,
        )
        assert result.quiescent

    def test_grant_messages_are_accounted(self):
        configuration = build_configuration()
        bus = MessageBus()
        execute_round(configuration, {"p3": proposal("p3", "c2", "c1", 0.9)}, bus=bus)
        assert bus.count("GrantMessage") == 1


class TestNewClusterCreation:
    def test_new_cluster_target_uses_an_empty_slot(self):
        configuration = build_configuration()
        result = execute_round(
            configuration, {"p2": proposal("p2", "c1", NEW_CLUSTER, 0.6)}
        )
        assert result.num_granted == 1
        move = result.granted[0]
        assert move.created_cluster
        assert move.target_cluster == "c4"
        assert configuration.cluster_of("p2") == "c4"
        assert set(configuration.cluster("c4").members) == {"p2"}

    def test_new_cluster_request_discarded_without_empty_slot(self):
        configuration = ClusterConfiguration(["c1", "c2"], {"p1": "c1", "p2": "c2"})
        result = execute_round(
            configuration, {"p1": proposal("p1", "c1", NEW_CLUSTER, 0.6)}
        )
        assert result.num_granted == 0
        assert len(result.discarded) == 1
