"""Tests for the gather (phase-1) logic at the cluster representatives."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import NEW_CLUSTER
from repro.overlay.messages import MessageBus
from repro.peers.configuration import ClusterConfiguration
from repro.protocol.representative import gather_requests
from repro.strategies.base import MoverBatch, RelocationProposal
from tests.protocol_oracle import gather_per_message


def proposal(peer, source, target, gain):
    return RelocationProposal(peer_id=peer, source_cluster=source, target_cluster=target, gain=gain)


class TestGatherRequests:
    def _configuration(self):
        return ClusterConfiguration(
            ["c1", "c2", "c3"], {"p1": "c1", "p2": "c1", "p3": "c2", "p4": "c3"}
        )

    def test_at_most_one_request_per_cluster(self):
        configuration = self._configuration()
        proposals = {
            "p1": proposal("p1", "c1", "c2", 0.3),
            "p2": proposal("p2", "c1", "c3", 0.6),
            "p3": proposal("p3", "c2", "c1", 0.4),
            "p4": proposal("p4", "c3", "c3", 0.0),
        }
        requests = gather_requests(configuration, proposals)
        assert len(requests) == 2
        by_source = {request.source_cluster: request for request in requests}
        assert by_source["c1"].peer_id == "p2"
        assert by_source["c2"].peer_id == "p3"

    def test_highest_gain_wins(self):
        configuration = ClusterConfiguration(
            ["c1", "c2", "c3"], {"alice": "c1", "carol": "c1", "bob": "c2"}
        )
        requests = gather_requests(
            configuration,
            {
                "alice": proposal("alice", "c1", "c2", 0.2),
                "carol": proposal("carol", "c1", "c3", 0.7),
            },
        )
        assert [(request.peer_id, request.gain) for request in requests] == [("carol", 0.7)]

    def test_threshold_filters_requests(self):
        configuration = self._configuration()
        proposals = {"p1": proposal("p1", "c1", "c2", 0.2), "p3": proposal("p3", "c2", "c1", 0.5)}
        assert gather_requests(configuration, proposals, gain_threshold=0.5) == []

    def test_stay_proposals_are_ignored(self):
        configuration = self._configuration()
        assert gather_requests(configuration, {"p1": proposal("p1", "c1", "c1", 0.3)}) == []

    def test_gain_ties_go_to_the_smaller_repr(self):
        configuration = ClusterConfiguration(["c1", "c2"], {"p9": "c1", "p10": "c1", "q": "c2"})
        # Inserted p9 first; repr("p10") < repr("p9") decides the tie.
        proposals = {
            "p9": proposal("p9", "c1", "c2", 0.5),
            "p10": proposal("p10", "c1", "c2", 0.5),
        }
        [request] = gather_requests(configuration, proposals)
        assert request.peer_id == "p10"

    def test_requests_come_out_in_cluster_repr_order(self):
        configuration = ClusterConfiguration(["c2", "c10", "c1"], {"a": "c2", "b": "c10", "c": "c1"})
        proposals = {
            "a": proposal("a", "c2", "c1", 0.9),
            "b": proposal("b", "c10", "c2", 0.1),
            "c": proposal("c", "c1", "c10", 0.5),
        }
        requests = gather_requests(configuration, proposals)
        assert [request.source_cluster for request in requests] == ["c1", "c10", "c2"]

    def test_multi_cluster_member_competes_in_each_cluster(self):
        configuration = ClusterConfiguration(
            ["c1", "c2", "c3"], {"a": ["c1", "c2"], "b": "c1", "c": "c2"}
        )
        proposals = {
            "a": proposal("a", "c1", "c3", 0.4),
            "b": proposal("b", "c1", "c3", 0.6),
        }
        requests = gather_requests(configuration, proposals)
        # a loses c1 to b but is still c2's best (and only) mover.
        assert [request.peer_id for request in requests] == ["b", "a"]

    def test_request_broadcast_is_accounted(self):
        configuration = self._configuration()
        proposals = {"p1": proposal("p1", "c1", "c2", 0.3)}
        bus = MessageBus()
        gather_requests(configuration, proposals, bus=bus)
        # The c1 representative advertises to the two other representatives.
        assert bus.count("RelocationRequestMessage") == 2

    def test_missing_proposals_are_tolerated(self):
        configuration = self._configuration()
        assert gather_requests(configuration, {}) == []

    def test_peers_outside_the_configuration_are_ignored(self):
        configuration = self._configuration()
        assert gather_requests(configuration, {"ghost": proposal("ghost", "c1", "c2", 0.9)}) == []


# Listed in an order their repr order does not follow, so insertion-order
# bugs and repr tie-breaking both show.
PEERS = ("p9", "p10", "b", "a", "p2")
CLUSTERS = ("c2", "c10", "c1", "c3")
GAINS = (0.0, 0.1, 0.25, 0.5)


@st.composite
def gather_cases(draw):
    """A tiny configuration, every peer's proposal (or none) and a threshold."""
    peers = PEERS[: draw(st.integers(1, len(PEERS)))]
    clusters = CLUSTERS[: draw(st.integers(1, len(CLUSTERS)))]
    memberships = {
        peer: sorted(draw(st.sets(st.sampled_from(clusters), min_size=1, max_size=2)))
        for peer in peers
    }
    configuration = ClusterConfiguration([*clusters, "spare"], memberships)
    proposals = {}
    for peer in draw(st.permutations(peers)):
        kind = draw(st.sampled_from(("none", "stay", "move", "new")))
        if kind == "none":
            continue
        source = draw(st.sampled_from(memberships[peer]))
        if kind == "stay":
            target = source
        elif kind == "new":
            target = NEW_CLUSTER
        else:
            target = draw(st.sampled_from([c for c in (*clusters, "spare") if c != source]))
        proposals[peer] = proposal(peer, source, target, draw(st.sampled_from(GAINS)))
    return configuration, proposals, draw(st.sampled_from(GAINS[:3]))


def repr_ranks(peer_order):
    """Each row's rank in ``repr`` order, as the recall matrix caches it."""
    order = sorted(range(len(peer_order)), key=lambda row: repr(peer_order[row]))
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rank


@st.composite
def batch_cases(draw):
    """A tiny configuration and a MoverBatch of array rows and per-peer entries.

    Single-cluster peers may become array rows (the gains come from a small
    set, so exact ties are common, and some rows target ``NEW_CLUSTER``);
    multi-cluster peers, and single-cluster peers the arrays leave out,
    may become per-peer entries.  The threshold is drawn from the gains
    themselves, so it sits at or above some of them.
    """
    peers = PEERS[: draw(st.integers(1, len(PEERS)))]
    clusters = CLUSTERS[: draw(st.integers(1, len(CLUSTERS)))]
    memberships = {
        peer: sorted(draw(st.sets(st.sampled_from(clusters), min_size=1, max_size=2)))
        for peer in peers
    }
    configuration = ClusterConfiguration([*clusters, "spare"], memberships)
    columns = [*draw(st.permutations([*clusters, "spare"])), NEW_CLUSTER]
    # The matrix rows: the peers in a drawn order, then one outside the configuration.
    peer_order = [*draw(st.permutations(peers)), "ghost"]
    rows, sources, targets, gains = [], [], [], []
    proposals = {}
    for row, peer in enumerate(peer_order[:-1]):
        single = len(memberships[peer]) == 1
        kind = draw(st.sampled_from(("none", "row", "entry") if single else ("none", "entry")))
        source = draw(st.sampled_from(memberships[peer]))
        target = draw(st.sampled_from([c for c in columns if c != source]))
        gain = draw(st.sampled_from(GAINS))
        if kind == "row":
            rows.append(row)
            sources.append(columns.index(source))
            targets.append(columns.index(target))
            gains.append(gain)
        elif kind == "entry":
            proposals[peer] = proposal(peer, source, target, gain)
    # Per-peer entries arrive in peer_ids order, after every array row.
    proposals = {peer: proposals[peer] for peer in draw(st.permutations(list(proposals)))}
    batch = MoverBatch(
        proposals,
        peer_order=peer_order,
        repr_rank=repr_ranks(peer_order),
        clusters=columns,
        rows=np.array(rows, dtype=np.intp),
        sources=np.array(sources, dtype=np.intp),
        targets=np.array(targets, dtype=np.intp),
        gains=np.array(gains, dtype=np.float64),
    )
    return configuration, batch, draw(st.sampled_from(GAINS))


class TestGatherMatchesPerMessageOracle:
    @settings(max_examples=300, deadline=None)
    @given(gather_cases())
    def test_movers_only_gather_matches_the_oracle(self, case):
        configuration, proposals, threshold = case
        expected, messages = gather_per_message(
            configuration, proposals, gain_threshold=threshold
        )
        movers = {peer: p for peer, p in proposals.items() if p.is_move}
        bus = MessageBus()
        requests = gather_requests(configuration, movers, gain_threshold=threshold, bus=bus)
        assert requests == expected
        assert bus.count("RelocationRequestMessage") == messages["RelocationRequestMessage"]
        # One gain report per membership of every reporting peer: the count
        # ReformulationProtocol.run_round adds without building the reports.
        assert messages["GainReportMessage"] == sum(
            len(configuration.clusters_of(peer)) for peer in proposals
        )

    @settings(max_examples=300, deadline=None)
    @given(batch_cases())
    def test_batch_gather_matches_the_oracle(self, case):
        configuration, batch, threshold = case
        expected, messages = gather_per_message(
            configuration, dict(batch), gain_threshold=threshold
        )
        bus = MessageBus()
        requests = gather_requests(configuration, batch, gain_threshold=threshold, bus=bus)
        assert requests == expected
        assert bus.count("RelocationRequestMessage") == messages["RelocationRequestMessage"]
        # The same movers as a plain mapping gather the same requests.
        assert gather_requests(configuration, dict(batch), gain_threshold=threshold) == expected


class TestMoverBatch:
    def _batch(self):
        peer_order = ["p9", "p10", "a", "b"]
        return MoverBatch(
            {"z": proposal("z", "c1", NEW_CLUSTER, 0.2), "y": proposal("y", "c2", "c1", 0.3)},
            peer_order=peer_order,
            repr_rank=repr_ranks(peer_order),
            clusters=["c1", "c2", NEW_CLUSTER],
            rows=np.array([0, 2, 3], dtype=np.intp),
            sources=np.array([0, 1, 1], dtype=np.intp),
            targets=np.array([1, 2, 0], dtype=np.intp),
            gains=np.array([0.5, 0.25, 0.125]),
        )

    def test_reads_like_the_dict_it_stands_for(self):
        batch = self._batch()
        assert list(batch) == ["p9", "a", "b", "z", "y"]
        assert len(batch) == 5
        assert "a" in batch and "z" in batch and "p10" not in batch
        assert batch["a"] == proposal("a", "c2", NEW_CLUSTER, 0.25)
        assert batch["z"] == proposal("z", "c1", NEW_CLUSTER, 0.2)
        assert dict(batch) == {
            "p9": proposal("p9", "c1", "c2", 0.5),
            "a": proposal("a", "c2", NEW_CLUSTER, 0.25),
            "b": proposal("b", "c2", "c1", 0.125),
            "z": proposal("z", "c1", NEW_CLUSTER, 0.2),
            "y": proposal("y", "c2", "c1", 0.3),
        }

    def test_creating_and_without_select_new_cluster_movers(self):
        batch = self._batch()
        positions, peer_ids = batch.creating()
        assert positions == [1] and peer_ids == ["z"]
        kept = batch.without(positions, peer_ids)
        assert list(kept) == ["p9", "b", "y"]
        assert list(batch) == ["p9", "a", "b", "z", "y"]  # the original is untouched

    def test_a_plain_mapping_becomes_per_peer_entries(self):
        movers = {"z": proposal("z", "c1", "c2", 0.2)}
        batch = MoverBatch.of(movers)
        assert dict(batch) == movers and batch.rows.size == 0
        assert MoverBatch.of(batch) is batch
