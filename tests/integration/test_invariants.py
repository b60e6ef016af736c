"""Property-based invariants over randomly generated small systems.

Hypothesis generates small peer populations (random content, random
workloads, random cluster assignments) and the tests check the structural
invariants the paper's cost model and protocol rely on:

* recall vectors sum to one (or zero when a query has no results),
* the social cost is the sum of individual costs and is non-negative,
* matrix-accelerated costs equal the reference costs,
* a granted relocation with positive ``pgain`` reduces that peer's cost,
  though a round's granted moves together can raise the social cost,
* protocol rounds never lose or duplicate peers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.documents import Document
from repro.core.queries import Query
from repro.game.model import ClusterGame
from repro.peers.configuration import ClusterConfiguration
from repro.peers.network import PeerNetwork
from repro.peers.peer import Peer
from repro.protocol.reformulation import ReformulationProtocol
from repro.strategies.selfish import SelfishStrategy

TERMS = ["alpha", "beta", "gamma", "delta"]


@st.composite
def small_systems(draw):
    """A random network of 2-5 peers plus a random single-cluster assignment."""
    num_peers = draw(st.integers(min_value=2, max_value=5))
    peers = []
    for index in range(num_peers):
        num_documents = draw(st.integers(min_value=0, max_value=3))
        documents = [
            Document(draw(st.lists(st.sampled_from(TERMS), min_size=1, max_size=3, unique=True)))
            for _ in range(num_documents)
        ]
        peer = Peer(f"p{index}", documents=documents)
        num_queries = draw(st.integers(min_value=0, max_value=3))
        for _ in range(num_queries):
            peer.issue_query(Query([draw(st.sampled_from(TERMS))]))
        peers.append(peer)
    network = PeerNetwork(peers)

    num_clusters = draw(st.integers(min_value=1, max_value=num_peers))
    cluster_ids = [f"c{index}" for index in range(num_peers)]
    configuration = ClusterConfiguration(cluster_ids)
    for index, peer in enumerate(peers):
        chosen = draw(st.integers(min_value=0, max_value=num_clusters - 1))
        configuration.assign(peer.peer_id, cluster_ids[chosen])
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    return network, configuration, alpha


class TestCostInvariants:
    @settings(max_examples=40, deadline=None)
    @given(system=small_systems())
    def test_recall_vectors_sum_to_one_or_zero(self, system):
        network, _configuration, _alpha = system
        model = network.recall_model()
        for term in TERMS:
            total = sum(model.recall_vector(Query([term])).values())
            assert total == pytest.approx(1.0) or total == pytest.approx(0.0)

    @settings(max_examples=40, deadline=None)
    @given(system=small_systems())
    def test_social_cost_is_sum_of_non_negative_individual_costs(self, system):
        network, configuration, alpha = system
        cost_model = network.cost_model(alpha=alpha, use_matrix=False)
        costs = cost_model.per_peer_costs(configuration)
        assert all(cost >= -1e-9 for cost in costs.values())
        assert cost_model.social_cost(configuration) == pytest.approx(sum(costs.values()))

    @settings(max_examples=30, deadline=None)
    @given(system=small_systems())
    def test_matrix_path_equals_reference_path(self, system):
        network, configuration, alpha = system
        reference = network.cost_model(alpha=alpha, use_matrix=False)
        accelerated = network.cost_model(alpha=alpha, use_matrix=True)
        for peer_id in network.peer_ids():
            assert accelerated.pcost(peer_id, configuration) == pytest.approx(
                reference.pcost(peer_id, configuration), abs=1e-9
            )
        assert accelerated.workload_cost(configuration) == pytest.approx(
            reference.workload_cost(configuration), abs=1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(system=small_systems())
    def test_best_response_gain_is_realised_by_moving(self, system):
        network, configuration, alpha = system
        cost_model = network.cost_model(alpha=alpha, use_matrix=False)
        game = ClusterGame(cost_model, configuration, allow_new_clusters=False)
        for peer_id in network.peer_ids():
            response = game.best_response(peer_id)
            if not response.wants_to_move:
                continue
            moved = configuration.copy()
            moved.move(peer_id, response.current_cluster, response.best_cluster)
            realised = cost_model.pcost(peer_id, moved)
            assert realised == pytest.approx(response.best_cost, abs=1e-9)
            assert realised < response.current_cost + 1e-9


class TestProtocolInvariants:
    @settings(max_examples=25, deadline=None)
    @given(system=small_systems())
    def test_protocol_preserves_the_peer_population(self, system):
        network, configuration, alpha = system
        peers_before = sorted(configuration.peer_ids())
        cost_model = network.cost_model(alpha=alpha, use_matrix=False)
        protocol = ReformulationProtocol(cost_model, configuration, SelfishStrategy())
        protocol.run(max_rounds=15)
        assert sorted(configuration.peer_ids()) == peers_before
        assert sum(configuration.sizes().values()) == len(peers_before)

    @settings(max_examples=25, deadline=None)
    @given(system=small_systems())
    def test_each_granted_move_lowers_its_movers_cost(self, system):
        """What a selfish round promises: each granted move, applied alone to the
        round-start configuration, lowers its mover's cost.  A round grants every
        cluster's winner against the round-start costs, so the moves together
        can still raise the social cost (see the next test)."""
        network, configuration, alpha = system
        cost_model = network.cost_model(alpha=alpha, use_matrix=False)
        protocol = ReformulationProtocol(cost_model, configuration, SelfishStrategy())
        for round_number in range(15):
            start = configuration.copy()
            granted = protocol.run_round(round_number).granted
            if not granted:
                break
            for move in granted:
                # A created cluster was one of the round start's empty slots.
                target = start.empty_clusters()[0] if move.created_cluster else move.target_cluster
                alone = start.copy()
                alone.move(move.peer_id, move.source_cluster, target)
                assert cost_model.pcost(move.peer_id, alone) < cost_model.pcost(
                    move.peer_id, start
                )

    def test_social_cost_can_rise_in_a_selfish_round(self):
        """p0 and p1 query what only p2 holds.  Once p2 sits alone, each of them
        gains by joining it, and the round grants both (they leave different
        clusters), so all three pay for a cluster of three at alpha 2."""
        holder = Peer("p2", documents=[Document(["alpha"])])
        seekers = [Peer(peer_id) for peer_id in ("p0", "p1")]
        for peer in seekers:
            peer.issue_query(Query(["alpha"]))
        network = PeerNetwork([*seekers, holder])
        configuration = ClusterConfiguration(["c0", "c1", "c2"])
        for peer_id, cluster_id in (("p1", "c0"), ("p2", "c0"), ("p0", "c1")):
            configuration.assign(peer_id, cluster_id)
        cost_model = network.cost_model(alpha=2.0, use_matrix=False)
        protocol = ReformulationProtocol(cost_model, configuration, SelfishStrategy())
        result = protocol.run(max_rounds=2)
        assert result.social_cost_trace == pytest.approx([13 / 9, 4 / 3, 2.0])
        assert sorted(move.peer_id for move in result.rounds[1].granted) == ["p0", "p1"]
        assert configuration.members("c2") == {"p0", "p1", "p2"}
