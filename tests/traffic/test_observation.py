"""Tests for period observation (:func:`repro.traffic.simulator.observe_period`).

The per-occurrence loop in ``tests/observation_oracle.py`` is the reference:
the bulk observation must fill the same integer trackers and count the same
messages under every router, on the paper grid and on random tiny systems.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.documents import Document
from repro.core.queries import Query
from repro.datasets.scenarios import (
    SCENARIO_DIFFERENT_CATEGORY,
    SCENARIO_SAME_CATEGORY,
    SCENARIO_UNIFORM,
    build_scenario,
    initial_configuration,
)
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.overlay.messages import MessageBus
from repro.overlay.routing import BroadcastRouter, ProbeKRouter, QueryRouter
from repro.peers.configuration import ClusterConfiguration
from repro.peers.network import PeerNetwork
from repro.peers.peer import Peer
from repro.traffic.simulator import observe_period
from tests.observation_oracle import observe_per_occurrence, tracker_state


def observe(network, configuration, router=None):
    """``(statistics, messages)`` of :func:`observe_period`, like the oracle."""
    bus = MessageBus()
    statistics = observe_period(network, configuration, router=router, bus=bus)
    return statistics, bus.snapshot()


def assert_matches_oracle(network, configuration, router=None):
    statistics, messages = observe(network, configuration, router)
    want_statistics, want_messages = observe_per_occurrence(network, configuration, router)
    assert tracker_state(statistics) == tracker_state(want_statistics)
    assert messages == want_messages


class TestObservePeriod:
    def test_routes_every_workload_occurrence(self, tiny_network, tiny_configuration):
        statistics, messages = observe(tiny_network, tiny_configuration)
        routed = sum(stats.recall_tracker.queries_observed() for stats in statistics.values())
        assert routed == 4  # alice 2 + bob 1 + carol 1
        assert messages["QueryMessage"] == 8  # two non-empty clusters per query

    def test_recall_trackers_match_exact_model_under_broadcast(
        self, tiny_network, tiny_configuration
    ):
        statistics = observe_period(tiny_network, tiny_configuration)
        model = tiny_network.recall_model()
        movies = Query(["movies"])
        alice_tracker = statistics["alice"].recall_tracker
        # alice's "movies" results: carol (c1) and bob (c2) hold one each.
        assert alice_tracker.cluster_recall(movies, "c1") == pytest.approx(
            model.recall(movies, "carol")
        )
        assert alice_tracker.cluster_recall(movies, "c2") == pytest.approx(
            model.recall(movies, "bob")
        )

    def test_contribution_trackers_record_issuer_clusters(
        self, tiny_network, tiny_configuration
    ):
        statistics = observe_period(tiny_network, tiny_configuration)
        # alice serves bob's "music" query (bob sits in c2) and nothing else.
        alice_contribution = statistics["alice"].contribution_tracker
        assert alice_contribution.contribution("c2") == pytest.approx(1.0)
        # carol serves alice's two "movies" queries (c1), her own (c1), and bob's music (c2).
        carol_contribution = statistics["carol"].contribution_tracker
        assert carol_contribution.contribution("c1") > carol_contribution.contribution("c2")

    def test_each_call_observes_a_fresh_period(self, tiny_network, tiny_configuration):
        first = observe_period(tiny_network, tiny_configuration)
        second = observe_period(tiny_network, tiny_configuration)
        assert tracker_state(first) == tracker_state(second)
        assert first["alice"] is not second["alice"]

    def test_every_peer_gets_statistics(self, tiny_network, tiny_configuration):
        tiny_network.add_peer(Peer("idle"))
        tiny_configuration.assign("idle", "c3")
        statistics = observe_period(tiny_network, tiny_configuration)
        assert set(statistics) == {"alice", "bob", "carol", "idle"}
        assert statistics["idle"].recall_tracker.queries_observed() == 0
        assert statistics["idle"].contribution_tracker.total_served() == 0

    def test_custom_router_is_used(self, tiny_network, tiny_configuration):
        statistics, messages = observe(
            tiny_network, tiny_configuration, ProbeKRouter(tiny_network, k=1)
        )
        routed = sum(stats.recall_tracker.queries_observed() for stats in statistics.values())
        # With k=1 every query reaches exactly one cluster.
        assert messages["QueryMessage"] == routed

    def test_multi_cluster_issuer_is_rejected(self, tiny_network, tiny_configuration):
        tiny_configuration.assign("alice", "c2")
        with pytest.raises(ConfigurationError, match="belongs to 2 clusters"):
            observe_period(tiny_network, tiny_configuration)


class TestAnnotatedResults:
    """Results carry the providing cluster's cid (Section 3.1)."""

    def test_results_are_annotated_with_cids(self, tiny_network, tiny_configuration):
        statistics = observe_period(tiny_network, tiny_configuration)
        assert list(statistics["alice"].recall_tracker.observed_clusters()) == ["c1", "c2"]
        # bob (c2) answered both of alice's "movies" occurrences (c1) with one result.
        assert statistics["bob"].contribution_tracker.contributions() == {"c1": 1.0}
        assert statistics["bob"].contribution_tracker.total_served() == 3

    def test_zero_count_results_are_omitted(self, tiny_network, tiny_configuration):
        statistics = observe_period(tiny_network, tiny_configuration)
        # bob alone in c2 holds no "music": his query's results all come from c1.
        assert list(statistics["bob"].recall_tracker.observed_clusters()) == ["c1"]
        assert statistics["bob"].recall_tracker.cluster_recall(Query(["music"]), "c1") == 1.0

    def test_cluster_recall_matches_global_recall_under_broadcast(
        self, tiny_network, tiny_configuration
    ):
        statistics = observe_period(tiny_network, tiny_configuration)
        query = Query(["music"])
        model = tiny_network.recall_model()
        expected_c1 = model.recall(query, "alice") + model.recall(query, "carol")
        assert statistics["bob"].recall_tracker.cluster_recall(query, "c1") == pytest.approx(
            expected_c1
        )

    def test_messages_are_accounted(self, tiny_network, tiny_configuration):
        bus = MessageBus()
        observe_period(tiny_network, tiny_configuration, bus=bus)
        # alice's two "movies": bob + carol answer; bob's "music": alice + carol;
        # carol's "movies": bob + carol.
        assert bus.count("ResultMessage") == 2 * 2 + 2 + 2

    def test_bus_accumulates_across_periods(self, tiny_network, tiny_configuration):
        bus = MessageBus()
        observe_period(tiny_network, tiny_configuration, bus=bus)
        once = bus.snapshot()
        observe_period(tiny_network, tiny_configuration, bus=bus)
        assert bus.snapshot() == {kind: 2 * count for kind, count in once.items()}

    def test_probe_results_are_subset_of_broadcast(self, tiny_network, tiny_configuration):
        broadcast = observe_period(tiny_network, tiny_configuration)
        probed = observe_period(
            tiny_network, tiny_configuration, router=ProbeKRouter(tiny_network, k=1)
        )
        for peer_id, stats in probed.items():
            tracker = stats.recall_tracker
            for cluster_id in tracker.observed_clusters():
                assert cluster_id in broadcast[peer_id].recall_tracker.observed_clusters()
            assert tracker.total_results() <= broadcast[peer_id].recall_tracker.total_results()


SCENARIOS = (SCENARIO_SAME_CATEGORY, SCENARIO_DIFFERENT_CATEGORY, SCENARIO_UNIFORM)
ROUTERS = {
    "broadcast": BroadcastRouter,
    **{f"probe-{k}": functools.partial(ProbeKRouter, k=k) for k in (1, 2, 3)},
}
PAPER_GRID = [
    (scenario, initial, router)
    for scenario in SCENARIOS
    for initial in ("singletons", "random", "fewer", "more", "category")
    for router in ROUTERS
    if not (scenario == SCENARIO_UNIFORM and initial == "category")  # no categories
]


class ListedRouter(QueryRouter):
    """Any per-issuer target list: repeated, empty or no clusters at all."""

    def __init__(self, network, targets):
        super().__init__(network)
        self.targets = targets

    def target_clusters(self, issuer, configuration):
        return list(self.targets[issuer])


@pytest.fixture(scope="module")
def quick_scenarios():
    """The three paper scenarios at quick scale, read-only for the whole grid."""
    config = ExperimentConfig.quick().scenario
    return {scenario: build_scenario(scenario, config) for scenario in SCENARIOS}


class TestOracleParity:
    @pytest.mark.parametrize("scenario, initial, router", PAPER_GRID)
    def test_paper_grid_matches_the_per_occurrence_oracle(
        self, quick_scenarios, scenario, initial, router
    ):
        data = quick_scenarios[scenario]
        configuration = initial_configuration(data, initial)
        assert_matches_oracle(data.network, configuration, ROUTERS[router](data.network))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_systems_match_the_per_occurrence_oracle(self, data):
        terms = ["a", "b", "c", "d"]
        phrases = st.lists(st.sampled_from(terms), min_size=1, max_size=2, unique=True)
        num_peers = data.draw(st.integers(min_value=1, max_value=6), label="peers")
        peers = []
        for index in range(num_peers):
            documents = data.draw(st.lists(phrases, max_size=3), label="documents")
            peer = Peer(f"p{index}", documents=[Document(words) for words in documents])
            for words in data.draw(st.lists(phrases, max_size=3), label="queries"):
                peer.issue_query(Query(words), data.draw(st.integers(1, 3), label="count"))
            peers.append(peer)
        network = PeerNetwork(peers)

        num_slots = data.draw(st.integers(min_value=1, max_value=num_peers + 1), label="slots")
        slots = [f"c{index}" for index in range(num_slots)]
        configuration = ClusterConfiguration(slots)
        for peer in peers:
            configuration.assign(peer.peer_id, data.draw(st.sampled_from(slots), label="home"))
        # Moves empty some clusters (and create singletons) after the fact.
        for _ in range(data.draw(st.integers(min_value=0, max_value=3), label="moves")):
            peer_id = data.draw(st.sampled_from(peers), label="mover").peer_id
            source = configuration.cluster_of(peer_id)
            target = data.draw(st.sampled_from(slots), label="target")
            if target != source:
                configuration.move(peer_id, source, target)

        k = data.draw(st.integers(min_value=-1, max_value=num_slots + 1), label="k")
        if k == -1:
            listed = st.lists(st.sampled_from(slots), max_size=3)
            router = ListedRouter(
                network, {peer.peer_id: data.draw(listed, label="targets") for peer in peers}
            )
        elif k == 0:
            router = BroadcastRouter(network)
        else:
            router = ProbeKRouter(network, k=k)
        assert_matches_oracle(network, configuration, router)
