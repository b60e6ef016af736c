"""Tests for the weighted recall matrices (fast path == exact path)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.documents import Document
from repro.core.queries import Query
from repro.core.recall_matrix import WeightedRecallMatrix
from repro.errors import ConfigurationError, UnknownPeerError
from repro.game.kernel import BestResponseKernel
from repro.game.model import ClusterGame
from repro.peers.configuration import ClusterConfiguration
from repro.peers.network import PeerNetwork
from repro.peers.peer import Peer
from repro.strategies.altruistic import exact_contributions
from repro.strategies.base import StrategyContext
from tests.conftest import cost_model_in_mode
from tests.game_oracle import FullWidthKernel, column_local


@pytest.fixture
def matrix(tiny_network):
    return WeightedRecallMatrix(tiny_network.recall_model(), tiny_network.workloads())


class TestConstruction:
    def test_peer_order_matches_network(self, matrix, tiny_network):
        assert matrix.peer_order == tiny_network.peer_ids()
        assert len(matrix) == 3

    def test_duplicate_peer_order_rejected(self, tiny_network):
        with pytest.raises(ConfigurationError, match="each peer id once; repeated: \\['alice'\\]"):
            WeightedRecallMatrix(
                tiny_network.recall_model(),
                tiny_network.workloads(),
                peer_order=["alice", "alice", "bob"],
            )

    def test_unknown_mode_rejected(self, tiny_network):
        with pytest.raises(ConfigurationError, match="'dense' or 'factored', got 'sparse'"):
            WeightedRecallMatrix(
                tiny_network.recall_model(), tiny_network.workloads(), mode="sparse"
            )

    def test_unknown_peer_raises(self, matrix):
        with pytest.raises(UnknownPeerError):
            matrix.index_of("mallory")


class TestLocalMatrix:
    def test_rows_match_exact_recall(self, matrix, tiny_network):
        """W[i, j] equals the exact frequency-weighted recall of peer j for peer i's workload."""
        model = tiny_network.recall_model()
        workloads = tiny_network.workloads()
        local = matrix.local_matrix()
        for row, issuer in enumerate(matrix.peer_order):
            workload = workloads[issuer]
            for column, provider in enumerate(matrix.peer_order):
                expected = sum(
                    (count / workload.total()) * model.recall(query, provider)
                    for query, count in workload.items()
                )
                assert local[row, column] == pytest.approx(expected)

    def test_total_weight_is_row_sum(self, matrix):
        local = matrix.local_matrix()
        for row, peer_id in enumerate(matrix.peer_order):
            assert matrix.total_weight(peer_id) == pytest.approx(local[row].sum())

    def test_recall_loss_is_total_minus_covered(self, matrix):
        covered = ["alice", "carol"]
        for peer_id in matrix.peer_order:
            loss = matrix.recall_loss(peer_id, covered)
            assert loss == pytest.approx(
                matrix.total_weight(peer_id) - matrix.covered_weight(peer_id, covered)
            )
            assert loss >= -1e-12

    def test_covered_weight_with_unknown_peers_is_ignored(self, matrix):
        assert matrix.covered_weight("alice", ["mallory"]) == 0.0


class TestServiceMatrix:
    def test_service_counts_match_definition(self, matrix, tiny_network):
        """S[p, j] = sum over q in Q(p_j) of num(q, Q(p_j)) * result(q, p)."""
        model = tiny_network.recall_model()
        workloads = tiny_network.workloads()
        service = matrix.service_matrix()
        for provider_index, provider in enumerate(matrix.peer_order):
            for issuer_index, issuer in enumerate(matrix.peer_order):
                expected = sum(
                    count * model.result(query, provider)
                    for query, count in workloads[issuer].items()
                )
                assert service[provider_index, issuer_index] == pytest.approx(expected)

    def test_contribution_matrix_rows_sum_to_one_or_zero(self, matrix, tiny_configuration):
        membership, _clusters = tiny_configuration.membership_matrix(matrix.peer_order)
        contributions = matrix.contribution_matrix(membership)
        for row in range(contributions.shape[0]):
            row_sum = contributions[row].sum()
            assert row_sum == pytest.approx(1.0) or row_sum == pytest.approx(0.0)

    def test_contribution_matrix_shape_validation(self, matrix):
        with pytest.raises(ConfigurationError, match=r"one row per peer \(3 rows\), got 2"):
            matrix.contribution_matrix(np.zeros((2, 2)))


def eq6_reference(network, configuration, provider, clusters):
    """``contribution(provider, c)`` (Eq. 6) per the definition, one cluster at a time.

    :func:`exact_contributions`' arithmetic, read through ``clusters_of`` so
    that an issuer in several clusters counts towards each of them.
    """
    recall_model = network.recall_model()
    served = dict.fromkeys(clusters, 0.0)
    total = 0.0
    for issuer, workload in network.workloads().items():
        served_to_issuer = 0.0
        for query, count in workload.items():
            served_to_issuer += count * recall_model.result(query, provider)
        total += served_to_issuer
        if issuer in configuration:
            for cluster_id in configuration.clusters_of(issuer):
                served[cluster_id] += served_to_issuer
    return [served[cluster_id] / total if total else 0.0 for cluster_id in clusters]


class TestContributionsProperty:
    """Factored Eq. 6 is exact; dense Eq. 6 carries the recall table's rounding."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_factored_contributions_equal_the_per_peer_ratio(self, data):
        terms = ["a", "b", "c", "d"]
        phrases = st.lists(st.sampled_from(terms), min_size=1, max_size=2, unique=True)
        num_peers = data.draw(st.integers(min_value=1, max_value=6), label="peers")
        peers = []
        for index in range(num_peers):
            # No documents, or none matching any query: a peer that serves nothing.
            documents = data.draw(st.lists(phrases, max_size=3), label="documents")
            peer = Peer(f"p{index}", documents=[Document(words) for words in documents])
            for words in data.draw(st.lists(phrases, max_size=3), label="queries"):
                peer.issue_query(Query(words), data.draw(st.integers(1, 3), label="count"))
            peers.append(peer)
        network = PeerNetwork(peers)
        num_slots = data.draw(st.integers(min_value=1, max_value=num_peers + 1), label="slots")
        clusters = [f"c{index}" for index in range(num_slots)]
        configuration = ClusterConfiguration(clusters)
        for peer in peers:
            # No cluster: an issuer outside the configuration; two: a multi-membership row.
            homes = st.lists(st.sampled_from(clusters), max_size=2, unique=True)
            for cluster_id in data.draw(homes, label="homes"):
                configuration.assign(peer.peer_id, cluster_id)

        recall_model, workloads = network.recall_model(), network.workloads()
        factored = WeightedRecallMatrix(recall_model, workloads, mode="factored")
        dense = WeightedRecallMatrix(recall_model, workloads, mode="dense")
        # Every slot is a column, so clusters left empty are covered too.
        membership, _ = configuration.membership_matrix(factored.peer_order, clusters)
        got = factored.contribution_matrix(membership)
        want = np.array(
            [eq6_reference(network, configuration, p, clusters) for p in factored.peer_order]
        ).reshape(len(peers), len(clusters))
        assert got.tolist() == want.tolist()
        np.testing.assert_allclose(dense.contribution_matrix(membership), want, rtol=0, atol=1e-12)

        single = all(
            len(configuration.clusters_of(peer_id)) == 1
            for peer_id in configuration.peer_ids()
        )
        if single:
            context = StrategyContext(
                game=ClusterGame(network.cost_model(use_matrix=False), configuration)
            )
            for row, peer_id in enumerate(factored.peer_order):
                exact = exact_contributions(peer_id, context)
                for column, cluster_id in enumerate(clusters):
                    assert got[row, column] == exact.get(cluster_id, 0.0)


TERMS = ("a", "b", "c", "d", "e")
#: The one- and two-term queries over TERMS: 15 distinct queries.
QUERY_POOL = [(term,) for term in TERMS] + list(itertools.combinations(TERMS, 2))
#: A query on a term no document holds: nobody answers it.
UNANSWERED = ("z",)
#: Up to three documents of one to three terms each.
DOCUMENTS = st.lists(st.lists(st.sampled_from(TERMS), min_size=1, max_size=3), max_size=3)


def draw_reach_network(data):
    """A small random network whose factored recall has every reach corner case.

    Fixed peers: ``mute`` holds no document and asks only what nobody
    answers, ``quiet`` asks nothing, and ``wide`` asks 9-12 distinct queries
    (more than 8 slots: numpy sums such rows pairwise, not left to right).
    Up to five more peers draw documents and queries freely.
    """
    counts = st.integers(min_value=1, max_value=3)

    def peer(peer_id, queries):
        words = data.draw(DOCUMENTS, label=f"{peer_id} documents")
        issued = Peer(peer_id, documents=[Document(terms) for terms in words])
        for query in data.draw(queries, label=f"{peer_id} queries"):
            issued.issue_query(Query(query), data.draw(counts, label="count"))
        return issued

    mute = Peer("mute")
    mute.issue_query(Query(UNANSWERED), 2)
    peers = [
        mute,
        peer("quiet", st.just([])),
        peer("wide", st.lists(st.sampled_from(QUERY_POOL), min_size=9, max_size=12, unique=True)),
    ]
    free_queries = st.lists(
        st.sampled_from([*QUERY_POOL, UNANSWERED]), max_size=6, unique=True
    )
    for index in range(data.draw(st.integers(min_value=0, max_value=5), label="peers")):
        peers.append(peer(f"p{index}", free_queries))
    return PeerNetwork(peers)


class TestReachedColumnProperty:
    """Reach-bounded provider columns equal the full-width gather, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_reached_columns_scatter_to_the_full_width_columns(self, data):
        network = draw_reach_network(data)
        factored = WeightedRecallMatrix(
            network.recall_model(), network.workloads(), mode="factored"
        ).factored()
        population = factored.population
        assert factored.qidx.shape[1] > 8

        indptr, issuer_rows = factored.issuers()
        for query in range(len(factored.queries)):
            issuing = np.flatnonzero(
                ((factored.qidx == query) & (factored.w_count != 0)).any(axis=1)
            )
            assert issuer_rows[indptr[query] : indptr[query + 1]].tolist() == issuing.tolist()

        for column in range(population):
            rows, recall = factored.reached_column(column)
            scattered = np.zeros(population)
            scattered[rows] = recall
            assert np.array_equal(scattered, column_local(factored, column))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_kernel_updates_equal_full_width_updates(self, data):
        """Moves, extra memberships and departures leave both kernels' state ``==``."""
        network = draw_reach_network(data)
        peer_ids = network.peer_ids()
        clusters = [f"c{index}" for index in range(data.draw(st.integers(2, 4), label="slots"))]
        configuration = ClusterConfiguration(clusters)
        for peer_id in peer_ids:
            # Two homes: a multi-membership row.
            homes = st.lists(st.sampled_from(clusters), min_size=1, max_size=2, unique=True)
            for cluster_id in data.draw(homes, label="homes"):
                configuration.assign(peer_id, cluster_id)
        model = cost_model_in_mode(network, "factored")
        reach = BestResponseKernel(model, configuration)
        full = FullWidthKernel(model, configuration)
        for kernel in (reach, full):
            assert kernel.backend == "labels"
            kernel.cost_table(clusters)  # every CW column live

        for _ in range(data.draw(st.integers(min_value=1, max_value=8), label="steps")):
            peer_id = data.draw(st.sampled_from(peer_ids), label="peer")
            if peer_id not in configuration:
                configuration.assign(peer_id, data.draw(st.sampled_from(clusters)))
            else:
                homes = sorted(configuration.clusters_of(peer_id))
                others = [cluster_id for cluster_id in clusters if cluster_id not in homes]
                operation = data.draw(st.sampled_from(["move", "extra", "remove"]))
                if operation == "remove" or not others:
                    configuration.remove_peer(peer_id)
                elif operation == "extra":
                    configuration.assign(peer_id, data.draw(st.sampled_from(others)))
                else:
                    configuration.move(
                        peer_id,
                        data.draw(st.sampled_from(homes)),
                        data.draw(st.sampled_from(others)),
                    )
            assert np.array_equal(reach.cost_table(clusters), full.cost_table(clusters))


def assign_one_cluster_each(data, network):
    """A configuration with every peer of *network* in one drawn cluster."""
    clusters = [f"c{index}" for index in range(data.draw(st.integers(1, 3), label="slots"))]
    return ClusterConfiguration(
        clusters,
        {
            peer_id: data.draw(st.sampled_from(clusters), label="home")
            for peer_id in network.peer_ids()
        },
    )


class TestWorkloadShareProperty:
    """The workload cost's recall term is ``W``'s loss times the workload share."""

    @staticmethod
    def assert_matches_the_per_query_weighting(network, configuration):
        reference = network.cost_model(use_matrix=False)
        workloads = network.workloads()
        issued = [workloads[peer_id].total() for peer_id in network.peer_ids()]
        for mode in ("dense", "factored"):
            model = cost_model_in_mode(network, mode)
            share = model.matrix.workload_share
            assert not share.flags.writeable
            assert share.tolist() == [
                count / sum(issued) if sum(issued) else 0.0 for count in issued
            ]
            for peer_id in network.peer_ids():
                covered = set(configuration.covered_peers(peer_id)) | {peer_id}
                assert model.global_recall_loss(peer_id, covered) == pytest.approx(
                    reference.global_recall_loss(peer_id, covered), rel=1e-12, abs=1e-12
                )
            kernel = BestResponseKernel(model, configuration)
            for normalized in (False, True):
                want = reference.workload_cost(configuration, normalized=normalized)
                for got in (
                    model.workload_cost(configuration, normalized=normalized),
                    kernel.workload_cost(normalized=normalized),
                ):
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_share_path_equals_the_per_query_weighting(self, data):
        """Random networks; ``quiet`` issues no query, so its share is 0."""
        network = draw_reach_network(data)
        self.assert_matches_the_per_query_weighting(
            network, assign_one_cluster_each(data, network)
        )

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_no_issued_query_gives_zero_shares(self, data):
        network = PeerNetwork(
            [
                Peer(f"p{index}", documents=[Document(words) for words in data.draw(DOCUMENTS)])
                for index in range(data.draw(st.integers(1, 4), label="peers"))
            ]
        )
        self.assert_matches_the_per_query_weighting(
            network, assign_one_cluster_each(data, network)
        )


class TestResultCountsProperty:
    """Factored Eq. 6's result counts, recovered from ``B``, equal a fresh count."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_recovered_counts_equal_the_result_count_matrix(self, data):
        # Repeated documents give result counts and totals up to a few hundred.
        copies = st.integers(min_value=1, max_value=200)
        peers = []
        for index in range(data.draw(st.integers(min_value=1, max_value=6), label="peers")):
            documents = []
            for words in data.draw(DOCUMENTS, label="documents"):
                documents += [Document(words)] * data.draw(copies, label="copies")
            peer = Peer(f"p{index}", documents=documents)
            for query in data.draw(
                st.lists(st.sampled_from([*QUERY_POOL, UNANSWERED]), max_size=6, unique=True),
                label="queries",
            ):
                peer.issue_query(Query(query), data.draw(st.integers(1, 3), label="count"))
            peers.append(peer)
        network = PeerNetwork(peers)
        recall_model = network.recall_model()
        # The peers left out still provide results: they count in B_totals.
        peer_order = data.draw(
            st.lists(st.sampled_from(network.peer_ids()), min_size=1, unique=True),
            label="peer order",
        )
        matrix = WeightedRecallMatrix(
            recall_model, network.workloads(), peer_order, mode="factored"
        )
        counts, _ = recall_model.result_count_matrix(matrix.factored().queries, peer_order)
        assert np.array_equal(matrix.result_counts(), counts)


class TestCoveredIndices:
    def test_duplicate_peer_mentions_are_counted_once(self, tiny_network):
        """The matrix path dedups covered peers exactly like the set() of the exact path."""
        model = tiny_network.cost_model(use_matrix=True)
        exact = tiny_network.cost_model(use_matrix=False)
        duplicated = ["alice", "alice", "carol", "carol"]
        assert model.recall_loss("bob", duplicated) == pytest.approx(
            exact.recall_loss("bob", duplicated)
        )
        assert model.recall_loss("bob", duplicated) == pytest.approx(
            model.recall_loss("bob", ["alice", "carol"])
        )

    def test_frozenset_translation_is_memoised(self, tiny_network):
        matrix = tiny_network.recall_matrix()
        covered = frozenset({"alice", "carol"})
        first = matrix.covered_indices(covered)
        second = matrix.covered_indices(covered)
        assert first is second
