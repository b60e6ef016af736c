"""Tests for period observation (:func:`repro.traffic.simulator.observe_period`).

The per-occurrence loop in ``tests/observation_oracle.py`` is the reference:
the bulk observation must fill the same integer arrays and count the same
messages under every router, on the paper grid and on random tiny systems.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.documents import Document
from repro.core.queries import Query
from repro.core.recall import RecallModel
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
from repro.session import SessionConfig, Simulation
from repro.traffic.simulator import TrafficSimulator, _RoutingTables, observe_period
from repro.traffic.workloads import WorkloadContext
from tests.observation_oracle import as_arrays, observe_per_occurrence


def observe(network, configuration, router=None):
    """``(statistics, messages)`` of :func:`observe_period`, like the oracle."""
    bus = MessageBus()
    statistics = observe_period(network, configuration, router=router, bus=bus)
    return statistics, bus.snapshot()


def assert_matches_oracle(network, configuration, router=None):
    statistics, messages = observe(network, configuration, router)
    records, want_messages = observe_per_occurrence(network, configuration, router)
    assert statistics.peer_order == network.peer_ids()
    assert statistics.cluster_order == configuration.nonempty_clusters()
    got = (statistics.received, statistics.served, statistics.issued, statistics.own)
    for name, array, want in zip(
        ("received", "served", "issued", "own"), got, as_arrays(records, network, configuration)
    ):
        assert array.dtype == np.int64, name
        assert np.array_equal(array, want), name
    assert messages == want_messages


def share(statistics, table, peer_id, cluster_id):
    """The fraction of *peer_id*'s row of *table* that sits in *cluster_id*'s column."""
    row = statistics.peer_index[peer_id]
    return table[row, statistics.cluster_order.index(cluster_id)] / table[row].sum()


class TestObservePeriod:
    def test_routes_every_workload_occurrence(self, tiny_network, tiny_configuration):
        statistics, messages = observe(tiny_network, tiny_configuration)
        assert statistics.issued.sum() == 4  # alice 2 + bob 1 + carol 1
        assert messages["QueryMessage"] == 8  # two non-empty clusters per query

    def test_received_shares_match_exact_model_under_broadcast(
        self, tiny_network, tiny_configuration
    ):
        statistics = observe_period(tiny_network, tiny_configuration)
        model = tiny_network.recall_model()
        movies = Query(["movies"])
        # alice asks only "movies": carol (c1) and bob (c2) hold one result each.
        received = statistics.received
        assert share(statistics, received, "alice", "c1") == pytest.approx(
            model.recall(movies, "carol")
        )
        assert share(statistics, received, "alice", "c2") == pytest.approx(
            model.recall(movies, "bob")
        )

    def test_contributions_credit_issuer_clusters(self, tiny_network, tiny_configuration):
        statistics = observe_period(tiny_network, tiny_configuration)
        alice, carol = statistics.peer_index["alice"], statistics.peer_index["carol"]
        contributions = statistics.contributions(["c1", "c2"])
        # alice serves bob's "music" query (bob sits in c2) and nothing else.
        assert contributions[alice].tolist() == [0.0, 1.0]
        # carol serves alice's two "movies" queries (c1), her own (c1), and bob's music (c2).
        assert contributions[carol, 0] > contributions[carol, 1]

    def test_each_call_observes_a_fresh_period(self, tiny_network, tiny_configuration):
        first = observe_period(tiny_network, tiny_configuration)
        second = observe_period(tiny_network, tiny_configuration)
        assert first is not second
        for name in ("received", "served", "issued", "own"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_counts_near_the_float_bound_stay_exact(self, tiny_network, tiny_configuration):
        # alice asks "movies" 2**50 + 2 times; bob (c2) and carol (c1) hold one result each.
        occurrences = 2**50 + 2
        tiny_network.peer("alice").issue_query(Query(["movies"]), 2**50)
        statistics = observe_period(tiny_network, tiny_configuration)
        row = statistics.peer_index
        assert statistics.cluster_order == ["c1", "c2"]
        assert statistics.received[row["alice"]].tolist() == [occurrences, occurrences]
        assert statistics.issued[row["alice"]] == occurrences
        # Both movie holders serve alice's and carol's "movies" (c1); carol also bob's "music".
        assert statistics.served[row["bob"]].tolist() == [occurrences + 1, 0]
        assert statistics.served[row["carol"]].tolist() == [occurrences + 1, 1]

    def test_counts_past_exact_float_sums_are_rejected(self, tiny_network, tiny_configuration):
        # "movies" has two results in the network (bob's and carol's).
        tiny_network.peer("alice").issue_query(Query(["movies"]), 2**52)
        with pytest.raises(ConfigurationError, match=r"2\*\*53"):
            observe_period(tiny_network, tiny_configuration)

    def test_arrays_are_read_only(self, tiny_network, tiny_configuration):
        statistics = observe_period(tiny_network, tiny_configuration)
        with pytest.raises(ValueError):
            statistics.received[0, 0] = 1

    def test_every_peer_gets_a_row(self, tiny_network, tiny_configuration):
        tiny_network.add_peer(Peer("idle"))
        tiny_configuration.assign("idle", "c3")
        statistics = observe_period(tiny_network, tiny_configuration)
        assert statistics.peer_order == ["alice", "bob", "carol", "idle"]
        assert "idle" in statistics and "nobody" not in statistics
        idle = statistics.peer_index["idle"]
        assert statistics.issued[idle] == 0
        assert statistics.served[idle].sum() == 0
        assert statistics.cluster_order == ["c1", "c2", "c3"]

    def test_custom_router_is_used(self, tiny_network, tiny_configuration):
        statistics, messages = observe(
            tiny_network, tiny_configuration, ProbeKRouter(tiny_network, k=1)
        )
        # With k=1 every query reaches exactly one cluster.
        assert messages["QueryMessage"] == statistics.issued.sum()

    def test_multi_cluster_issuer_is_rejected(self, tiny_network, tiny_configuration):
        tiny_configuration.assign("alice", "c2")
        with pytest.raises(ConfigurationError, match="belongs to 2 clusters"):
            observe_period(tiny_network, tiny_configuration)


class TestAnnotatedResults:
    """Results carry the providing cluster's cid (Section 3.1)."""

    def test_results_are_annotated_with_cids(self, tiny_network, tiny_configuration):
        statistics = observe_period(tiny_network, tiny_configuration)
        alice, bob = statistics.peer_index["alice"], statistics.peer_index["bob"]
        assert statistics.cluster_order == ["c1", "c2"]
        assert statistics.received[alice].tolist() == [2, 2]
        # bob (c2) answered both of alice's "movies" occurrences (c1) and carol's.
        assert statistics.served[bob].tolist() == [3, 0]
        assert statistics.contributions(["c1", "c2"], [bob]).tolist() == [[1.0, 0.0]]

    def test_zero_count_results_are_omitted(self, tiny_network, tiny_configuration):
        statistics = observe_period(tiny_network, tiny_configuration)
        # bob alone in c2 holds no "music": his query's results all come from c1.
        bob = statistics.peer_index["bob"]
        assert statistics.received[bob].tolist() == [3, 0]
        shares, _ = statistics.recall_shares(["c1", "c2"], [bob])
        assert shares.tolist() == [[1.0, 0.0]]

    def test_received_share_matches_global_recall_under_broadcast(
        self, tiny_network, tiny_configuration
    ):
        statistics = observe_period(tiny_network, tiny_configuration)
        query = Query(["music"])  # bob's only query
        model = tiny_network.recall_model()
        expected_c1 = model.recall(query, "alice") + model.recall(query, "carol")
        assert share(statistics, statistics.received, "bob", "c1") == pytest.approx(expected_c1)

    def test_own_results_count_the_peers_own_content(self, tiny_network, tiny_configuration):
        statistics = observe_period(tiny_network, tiny_configuration)
        # carol holds one "movies" document and asks "movies" once; alice and
        # bob hold nothing of what they ask.
        assert dict(zip(statistics.peer_order, statistics.own.tolist())) == {
            "alice": 0,
            "bob": 0,
            "carol": 1,
        }

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
        assert np.all(probed.received <= broadcast.received)
        assert np.all((probed.received > 0) <= (broadcast.received > 0))


class TestReadingByCluster:
    """Readers name clusters; one the observation did not see reads 0."""

    def test_unobserved_clusters_read_zero(self, tiny_network, tiny_configuration):
        statistics = observe_period(tiny_network, tiny_configuration)
        carol = statistics.peer_index["carol"]
        contributions = statistics.contributions(["c3", "c2", "c1"], [carol])
        shares, own_shares = statistics.recall_shares(["c3", "c2", "c1"], [carol])
        # carol served alice twice and herself once (c1), bob once (c2).
        assert contributions.tolist() == [[0.0, 1 / 4, 3 / 4]]
        assert shares.tolist() == [[0.0, 1 / 2, 1 / 2]]
        assert own_shares.tolist() == [1 / 2]

    def test_a_peer_with_nothing_observed_reads_zero(self, tiny_network, tiny_configuration):
        tiny_network.add_peer(Peer("idle"))
        tiny_configuration.assign("idle", "c3")
        statistics = observe_period(tiny_network, tiny_configuration)
        idle = [statistics.peer_index["idle"]]
        shares, own_shares = statistics.recall_shares(["c1", "c2", "c3"], idle)
        assert shares.tolist() == [[0.0, 0.0, 0.0]]
        assert own_shares.tolist() == [0.0]
        assert statistics.contributions(["c1", "c2", "c3"], idle).tolist() == [[0.0, 0.0, 0.0]]


class TestRoutingTableColumns:
    """Tables span the clusters some group targets, never every cluster slot."""

    @staticmethod
    def tables(network, configuration, router):
        context = WorkloadContext.from_network(network, num_events=0)
        return _RoutingTables(network, configuration, router, context)

    @staticmethod
    def targeted(network, configuration, router):
        return {
            cluster_id
            for peer_id in network.peer_ids()
            for cluster_id in router.target_clusters(peer_id, configuration)
        }

    @pytest.mark.parametrize("router", ["broadcast", "probe-1", "probe-2"])
    def test_no_table_carries_an_untargeted_column(self, small_scenario, router):
        network = small_scenario.network
        configuration = initial_configuration(small_scenario, "fewer")
        assert configuration.empty_clusters()  # many untargeted slots
        router = ROUTERS[router](network)
        tables = self.tables(network, configuration, router)
        targeted = self.targeted(network, configuration, router)
        assert set(tables.cluster_order) == targeted
        assert tables.cluster_order == [c for c in configuration.cluster_ids() if c in targeted]
        assert tables.membership.shape == (len(network), len(targeted))
        assert {int(c) for columns in tables.group_columns for c in columns} == set(
            range(len(targeted))
        )
        report = TrafficSimulator(network, configuration, router=router).run(num_events=200)
        assert report.cluster_order == tables.cluster_order
        assert report.issuer_recall_sums.shape == (len(network), len(targeted))

    def test_targeted_empty_slots_keep_their_query_messages(self, tiny_network, tiny_configuration):
        router = ListedRouter(
            tiny_network, {"alice": ["c1", "c3"], "bob": ["c3"], "carol": ["c2", "c3", "c3"]}
        )
        tables = self.tables(tiny_network, tiny_configuration, router)
        assert tables.cluster_order == ["c1", "c2", "c3"]
        assert not tables.membership[:, 2].any()
        assert_matches_oracle(tiny_network, tiny_configuration, router)
        statistics = observe_period(tiny_network, tiny_configuration, router=router)
        assert statistics.cluster_order == ["c1", "c2"]  # an empty slot returns nothing


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


class TestOneBuildPerNetworkState:
    """Observation and traffic read the recall matrix the cost model already built."""

    def test_an_observed_period_and_a_traffic_run_count_results_once(self, monkeypatch):
        passes = []
        original = RecallModel.result_count_matrix

        def counting(self, queries, peer_order):
            passes.append(len(queries))
            return original(self, queries, peer_order)

        monkeypatch.setattr(RecallModel, "result_count_matrix", counting)
        simulation = Simulation(
            SessionConfig(scale="quick", initial="category", strategy_mode="observed", seed=7)
        )
        simulation.run_maintenance(1)
        simulation.run_traffic(num_events=1000)
        assert len(passes) == 1

    def test_a_context_from_an_older_state_is_refused(self, tiny_network, tiny_configuration):
        context = WorkloadContext.from_network(tiny_network, num_events=10)
        tiny_network.peer("bob").issue_query(Query(["jazz"]))
        simulator = TrafficSimulator(tiny_network, tiny_configuration)
        with pytest.raises(ConfigurationError, match="from_network"):
            simulator.run_streams([], context)
