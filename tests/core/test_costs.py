"""Tests for the cost model: Eq. 1 (pcost), Eq. 2 (SCost), Eq. 3 (WCost).

The most important checks reproduce, by hand, the numbers of the paper's
two-peer example from Section 2.3 and verify that the matrix-accelerated
evaluation returns exactly what the per-query reference evaluation returns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costs import NEW_CLUSTER, CostModel
from repro.core.documents import Document
from repro.core.queries import Query
from repro.core.theta import LinearTheta, LogarithmicTheta
from repro.errors import ConfigurationError, UnknownPeerError
from repro.peers.configuration import ClusterConfiguration
from repro.peers.network import PeerNetwork
from repro.peers.peer import Peer
from tests.conftest import cost_model_in_mode


class TestPaperTwoPeerExample:
    """The individual costs worked out in Section 2.3 (alpha = 1, linear theta)."""

    def _split_configuration(self):
        return ClusterConfiguration(["c1", "c2"], {"p1": "c1", "p2": "c2"})

    def _together_configuration(self):
        return ClusterConfiguration(["c1", "c2"], {"p1": "c1", "p2": "c1"})

    def test_split_costs(self, counterexample):
        cost_model = counterexample.cost_model
        configuration = self._split_configuration()
        # pcost(p1, c1) = alpha * 1/2 + 1 ; pcost(p2, c2) = alpha * 1/2
        assert cost_model.pcost("p1", configuration) == pytest.approx(0.5 + 1.0)
        assert cost_model.pcost("p2", configuration) == pytest.approx(0.5)

    def test_p1_moving_to_p2_reduces_cost(self, counterexample):
        cost_model = counterexample.cost_model
        configuration = self._split_configuration()
        # pcost(p1, c2) = alpha (cluster of size 2, no recall loss)
        assert cost_model.prospective_pcost("p1", "c2", configuration) == pytest.approx(1.0)
        assert cost_model.prospective_pcost("p1", "c2", configuration) < cost_model.pcost(
            "p1", configuration
        )

    def test_together_costs(self, counterexample):
        cost_model = counterexample.cost_model
        configuration = self._together_configuration()
        assert cost_model.pcost("p1", configuration) == pytest.approx(1.0)
        assert cost_model.pcost("p2", configuration) == pytest.approx(1.0)
        # p2 can move to the empty cluster and pay only alpha * 1/2.
        assert cost_model.prospective_pcost("p2", "c2", configuration) == pytest.approx(0.5)

    def test_new_cluster_option_equals_empty_cluster(self, counterexample):
        cost_model = counterexample.cost_model
        configuration = self._together_configuration()
        assert cost_model.prospective_pcost(
            "p2", NEW_CLUSTER, configuration
        ) == pytest.approx(cost_model.prospective_pcost("p2", "c2", configuration))


class TestCostModelBasics:
    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_alpha_must_be_non_negative(self, tiny_network, alpha):
        with pytest.raises(ConfigurationError, match=f"alpha .* got {alpha!r}"):
            CostModel(tiny_network.recall_model(), tiny_network.workloads(), alpha=alpha)

    def test_population_size_must_be_positive(self, tiny_network):
        with pytest.raises(ConfigurationError, match="population_size .* got 0"):
            CostModel(
                tiny_network.recall_model(), tiny_network.workloads(), population_size=0
            )

    def test_membership_cost(self, tiny_network):
        cost_model = tiny_network.cost_model(alpha=2.0, use_matrix=False)
        # alpha * (theta(2) + theta(1)) / |P| = 2 * 3 / 3
        assert cost_model.membership_cost([2, 1]) == pytest.approx(2.0)

    def test_membership_cost_scales_with_theta(self, tiny_network):
        log_model = tiny_network.cost_model(theta=LogarithmicTheta(), use_matrix=False)
        linear_model = tiny_network.cost_model(theta=LinearTheta(), use_matrix=False)
        assert log_model.membership_cost([8]) < linear_model.membership_cost([8])

    def test_pcost_in_tiny_configuration(self, tiny_network, tiny_configuration):
        cost_model = tiny_network.cost_model(use_matrix=False)
        # alice is clustered with carol: her "movies" query finds 1 of 2 results
        # inside the cluster, so the recall loss is 0.5; membership = 2/3.
        assert cost_model.pcost("alice", tiny_configuration) == pytest.approx(2 / 3 + 0.5)
        # bob is alone: loses all 3 "music" results except... none are his, loss=1.
        assert cost_model.pcost("bob", tiny_configuration) == pytest.approx(1 / 3 + 1.0)

    def test_social_cost_is_sum_of_pcosts(self, tiny_network, tiny_configuration):
        cost_model = tiny_network.cost_model(use_matrix=False)
        total = sum(cost_model.per_peer_costs(tiny_configuration).values())
        assert cost_model.social_cost(tiny_configuration) == pytest.approx(total)
        assert cost_model.social_cost(tiny_configuration, normalized=True) == pytest.approx(
            total / 3
        )

    def test_prospective_pcost_matches_pcost_after_move(self, tiny_network, tiny_configuration):
        cost_model = tiny_network.cost_model(use_matrix=False)
        prospective = cost_model.prospective_pcost("bob", "c1", tiny_configuration)
        moved = tiny_configuration.copy()
        moved.move("bob", "c2", "c1")
        assert cost_model.pcost("bob", moved) == pytest.approx(prospective)


class TestWorkloadCost:
    def test_workload_cost_definition(self, tiny_network, tiny_configuration):
        """WCost = maintenance term + globally-weighted recall loss."""
        cost_model = tiny_network.cost_model(use_matrix=False)
        maintenance = sum(
            size * LinearTheta()(size) for size in tiny_configuration.sizes().values()
        ) / 3
        loss = sum(
            cost_model.global_recall_loss(
                peer_id, set(tiny_configuration.covered_peers(peer_id)) | {peer_id}
            )
            for peer_id in tiny_network.peer_ids()
        )
        assert cost_model.workload_cost(tiny_configuration) == pytest.approx(maintenance + loss)

    def test_social_and_workload_membership_terms_agree(self, tiny_network):
        """With every peer in one cluster both costs share the same membership total."""
        cost_model = tiny_network.cost_model(use_matrix=False)
        configuration = ClusterConfiguration(
            ["c1"], {peer_id: "c1" for peer_id in tiny_network.peer_ids()}
        )
        # All recall is inside the single cluster, so both costs reduce to the
        # membership / maintenance term, which are equal by construction.
        assert cost_model.social_cost(configuration) == pytest.approx(
            cost_model.workload_cost(configuration)
        )


class TestMatrixEquivalence:
    def test_matrix_and_reference_costs_agree(self, tiny_network, tiny_configuration):
        reference = tiny_network.cost_model(use_matrix=False)
        accelerated = tiny_network.cost_model(use_matrix=True)
        for peer_id in tiny_network.peer_ids():
            assert accelerated.pcost(peer_id, tiny_configuration) == pytest.approx(
                reference.pcost(peer_id, tiny_configuration)
            )
            for cluster_id in tiny_configuration.cluster_ids():
                assert accelerated.prospective_pcost(
                    peer_id, cluster_id, tiny_configuration
                ) == pytest.approx(
                    reference.prospective_pcost(peer_id, cluster_id, tiny_configuration)
                )
        assert accelerated.social_cost(tiny_configuration) == pytest.approx(
            reference.social_cost(tiny_configuration)
        )
        assert accelerated.workload_cost(tiny_configuration) == pytest.approx(
            reference.workload_cost(tiny_configuration)
        )

    def test_build_matrix_attaches(self, tiny_network):
        cost_model = tiny_network.cost_model(use_matrix=False)
        assert cost_model.matrix is None
        cost_model.build_matrix()
        assert cost_model.matrix is not None
        cost_model.attach_matrix(None)
        assert cost_model.matrix is None


def per_peer_costs(cost_model, configuration, *, normalized):
    """``(SCost, WCost)`` by the per-peer definition: one ``pcost`` and one
    globally weighted loss per peer, in the recall model's peer order."""
    peer_ids = cost_model.recall_model.peer_ids
    social = sum(cost_model.pcost(peer_id, configuration) for peer_id in peer_ids)
    maintenance = 0.0
    for cluster_id in configuration.cluster_ids():
        size = configuration.size(cluster_id)
        maintenance += size * cost_model.theta(size)
    maintenance = cost_model.alpha * maintenance / cost_model.population_size
    loss = 0.0
    for peer_id in peer_ids:
        loss += cost_model.global_recall_loss(peer_id, configuration.covered_peers(peer_id))
    size = cost_model.population_size
    if normalized:
        return social / size, maintenance / size + loss
    return social, maintenance + loss


TERMS = "abcdef"


@st.composite
def single_membership_systems(draw):
    """A small network with random content and workloads, every peer in one cluster."""
    num_peers = draw(st.integers(1, 12))
    peers = []
    for index in range(num_peers):
        documents = draw(
            st.lists(st.sets(st.sampled_from(TERMS), min_size=1, max_size=3), max_size=4)
        )
        peer = Peer(
            f"p{index}",
            documents=[
                Document(sorted(terms), doc_id=f"p{index}-{number}")
                for number, terms in enumerate(documents)
            ],
        )
        asked = draw(
            st.lists(
                st.tuples(
                    st.sets(st.sampled_from(TERMS), min_size=1, max_size=2), st.integers(1, 7)
                ),
                max_size=4,
            )
        )
        for terms, count in asked:
            peer.issue_query(Query(sorted(terms)), count)
        peers.append(peer)
    num_clusters = draw(st.integers(1, num_peers + 1))
    labels = draw(
        st.lists(st.integers(0, num_clusters - 1), min_size=num_peers, max_size=num_peers)
    )
    configuration = ClusterConfiguration(
        [f"c{number}" for number in range(num_clusters)],
        {f"p{index}": f"c{label}" for index, label in enumerate(labels)},
    )
    alpha = draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]))
    theta = draw(st.sampled_from([LinearTheta(), LogarithmicTheta()]))
    return PeerNetwork(peers), configuration, alpha, theta


class TestSingleClusterArrayPass:
    """The global costs' array pass gives the per-peer definition's bits."""

    @settings(max_examples=150, deadline=None)
    @given(single_membership_systems(), st.booleans())
    def test_equals_the_per_peer_definition(self, system, normalized):
        network, configuration, alpha, theta = system
        cost_model = network.cost_model(alpha=alpha, theta=theta)
        assert cost_model.matrix.mode == "dense"
        assert cost_model._single_cluster_terms(configuration) is not None
        assert (
            cost_model.social_cost(configuration, normalized=normalized),
            cost_model.workload_cost(configuration, normalized=normalized),
        ) == per_peer_costs(cost_model, configuration, normalized=normalized)

    def test_a_peer_in_two_clusters_takes_the_per_peer_loop(
        self, tiny_network, tiny_configuration
    ):
        tiny_configuration.assign("alice", "c2")
        cost_model = tiny_network.cost_model()
        assert cost_model._single_cluster_terms(tiny_configuration) is None
        for normalized in (False, True):
            assert (
                cost_model.social_cost(tiny_configuration, normalized=normalized),
                cost_model.workload_cost(tiny_configuration, normalized=normalized),
            ) == per_peer_costs(cost_model, tiny_configuration, normalized=normalized)

    def test_a_peer_missing_from_the_configuration_raises(self, tiny_network):
        configuration = ClusterConfiguration(["c1", "c2"], {"alice": "c1", "bob": "c2"})
        cost_model = tiny_network.cost_model()
        with pytest.raises(UnknownPeerError, match="carol"):
            cost_model.social_cost(configuration)
        with pytest.raises(UnknownPeerError, match="carol"):
            cost_model.workload_cost(configuration)

    def test_a_factored_matrix_takes_the_per_peer_loop(self, tiny_network, tiny_configuration):
        cost_model = cost_model_in_mode(tiny_network, "factored")
        assert cost_model._single_cluster_terms(tiny_configuration) is None
        for normalized in (False, True):
            assert (
                cost_model.social_cost(tiny_configuration, normalized=normalized),
                cost_model.workload_cost(tiny_configuration, normalized=normalized),
            ) == per_peer_costs(cost_model, tiny_configuration, normalized=normalized)
