"""Tests for the batched traffic simulator: parity, invariance and accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.reporting import distribution_summary
from repro.datasets.scenarios import (
    SCENARIO_DIFFERENT_CATEGORY,
    SCENARIO_SAME_CATEGORY,
    SCENARIO_UNIFORM,
    ScenarioConfig,
    build_scenario,
    initial_configuration,
)
from repro.errors import ConfigurationError
from repro.events import EventHooks
from repro.experiments.config import ExperimentConfig
from repro.overlay.messages import MessageBus
from repro.overlay.routing import BroadcastRouter, ProbeKRouter
from repro.traffic.simulator import TrafficSimulator, observe_period
from repro.traffic.workloads import ReplayWorkload, WorkloadContext, build_workload
from tests import traffic_oracle

#: Small enough that a broadcast replay runs in milliseconds per scenario.
PARITY_CONFIG = ScenarioConfig(
    num_peers=12,
    num_categories=3,
    documents_per_peer=4,
    terms_per_document=3,
    category_vocabulary_size=15,
    queries_per_peer=3,
    seed=9,
)


class TestBroadcastReplayParity:
    """Satellite acceptance: simulator recall == exact model recall at 1e-9."""

    @pytest.mark.parametrize(
        "scenario, initial",
        [
            (SCENARIO_SAME_CATEGORY, "category"),
            (SCENARIO_DIFFERENT_CATEGORY, "category"),
            (SCENARIO_UNIFORM, "random"),  # uniform data has no categories
        ],
    )
    def test_observed_recall_matches_covered_weight(self, scenario, initial):
        data = build_scenario(scenario, PARITY_CONFIG)
        configuration = initial_configuration(data, initial)
        report = TrafficSimulator(data.network, configuration).run(workload="replay")
        matrix = data.network.recall_matrix()
        for peer_id in data.network.peer_ids():
            observed = report.observed_cluster_recall(peer_id)
            for cluster_id in report.cluster_order:
                exact = matrix.covered_weight(
                    peer_id, configuration.members(cluster_id)
                )
                assert observed[cluster_id] == pytest.approx(exact, abs=1e-9)

    def test_parity_survives_multiple_passes(self, tiny_network, tiny_configuration):
        report = TrafficSimulator(tiny_network, tiny_configuration).run(
            workload="replay", workload_options={"passes": 3}
        )
        matrix = tiny_network.recall_matrix()
        observed = report.observed_cluster_recall("alice")
        assert observed["c2"] == pytest.approx(
            matrix.covered_weight("alice", tiny_configuration.members("c2")), abs=1e-12
        )


class TestObservationParity:
    """A ``replay`` pass serves exactly what :func:`observe_period` observes."""

    @staticmethod
    def observed_totals(network, configuration, router=None):
        bus = MessageBus()
        statistics = observe_period(network, configuration, router=router, bus=bus)
        return int(statistics.issued.sum()), bus.snapshot(), int(statistics.received.sum())

    def test_tiny_network_replay_matches_observation(
        self, tiny_network, tiny_configuration
    ):
        routed, messages, results = self.observed_totals(tiny_network, tiny_configuration)
        report = TrafficSimulator(tiny_network, tiny_configuration).run(
            workload="replay"
        )
        assert report.events == routed
        assert report.message_counts == messages
        assert report.result_items == results

    def test_scenario_replay_matches_observation(self, small_scenario):
        configuration = initial_configuration(small_scenario, "category")
        routed, messages, results = self.observed_totals(
            small_scenario.network, configuration
        )
        report = TrafficSimulator(small_scenario.network, configuration).run(
            workload="replay"
        )
        assert report.events == routed
        assert report.message_counts == messages
        assert report.result_items == results

    def test_probe_k_message_parity(self, small_scenario):
        configuration = initial_configuration(small_scenario, "category")
        _, messages, results = self.observed_totals(
            small_scenario.network,
            configuration,
            router=ProbeKRouter(small_scenario.network, k=2),
        )
        report = TrafficSimulator(
            small_scenario.network,
            configuration,
            router=ProbeKRouter(small_scenario.network, k=2),
        ).run(workload="replay")
        assert report.message_counts == messages
        assert report.result_items == results


class TestBatchInvariance:
    def test_metrics_are_independent_of_batch_size(
        self, tiny_network, tiny_configuration
    ):
        payloads = []
        for batch_size in (7, 100_000):
            report = TrafficSimulator(
                tiny_network, tiny_configuration, batch_size=batch_size
            ).run(workload="flash-crowd", num_events=500, seed=5)
            payload = report.to_dict()
            payload.pop("batches")  # the only batch-size-dependent field
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_batch_size_must_be_positive(self, tiny_network, tiny_configuration):
        with pytest.raises(ConfigurationError, match="batch_size"):
            TrafficSimulator(tiny_network, tiny_configuration, batch_size=0)


class OpaqueBroadcast(BroadcastRouter):
    """Same targets, but hides the cluster-invariance contract: one group per issuer."""

    cluster_invariant = False


@pytest.fixture(scope="module")
def quick_overlay():
    """The quick same-category scenario's network under its random configuration."""
    data = build_scenario(SCENARIO_SAME_CATEGORY, ExperimentConfig.quick().scenario)
    return data.network, initial_configuration(data, "random")


def generated_streams(network, workload, *, num_events, seed):
    """The streams *workload* emits on *network*, with their context."""
    context = WorkloadContext.from_network(network, num_events=num_events, seed=seed)
    return build_workload(workload).streams(context), context


def routed_batches(network, configuration, **options):
    """A simulator on the overlay and the list its ``query_routed`` events land in."""
    hooks = EventHooks()
    routed = []
    hooks.on_query_routed(routed.append)
    return TrafficSimulator(network, configuration, hooks=hooks, **options), routed


class TestPerEventOracle:
    """Every report field equals its per-event reference from ``tests/traffic_oracle.py``."""

    ROUTERS = {
        "broadcast": BroadcastRouter,
        "probe-1": lambda network: ProbeKRouter(network, k=1),
        "per-issuer": OpaqueBroadcast,
    }

    @pytest.mark.parametrize("router", sorted(ROUTERS))
    @pytest.mark.parametrize("workload", ["uniform", "flash-crowd"])
    @pytest.mark.parametrize("batch_size", [7, 8192])
    def test_report_equals_the_per_event_reference(
        self, quick_overlay, router, workload, batch_size
    ):
        network, configuration = quick_overlay
        simulator, routed = routed_batches(
            network, configuration, router=self.ROUTERS[router](network), batch_size=batch_size
        )
        streams, context = generated_streams(network, workload, num_events=3000, seed=13)
        report = simulator.run_streams(streams, context, workload_label=workload)
        _, issuers, queries = traffic_oracle.reference_merge(streams)
        events = traffic_oracle.per_event_arrays(simulator, issuers, queries)
        assert events["recall"].size == report.events == 3000
        for name in ("latency_ms", "hops", "bandwidth_bytes", "recall"):
            assert getattr(report, name) == distribution_summary(events[name]), name
        assert report.total_bandwidth_bytes == float(events["bandwidth_bytes"].sum())
        sizes = [batch.events for batch in routed]
        for name in ("query_messages", "result_messages", "result_items"):
            expected = [int(round(total)) for total in traffic_oracle.batch_sums(events[name], sizes)]
            assert [getattr(batch, name) for batch in routed] == expected, name
            assert getattr(report, name) == sum(expected), name
        matrix = traffic_oracle.event_matrix(simulator, issuers, queries)
        assert np.array_equal(report.issuer_event_counts, matrix.sum(axis=1))
        assert np.array_equal(
            report.issuer_recall_sums, traffic_oracle.issuer_recall_sums(simulator, matrix)
        )


class TestEventLoop:
    def test_multi_stream_drain_preserves_global_time_order(
        self, tiny_network, tiny_configuration
    ):
        simulator, routed = routed_batches(tiny_network, tiny_configuration, batch_size=16)
        report = simulator.run(workload="flash-crowd", num_events=400, seed=2)
        assert report.events == sum(batch.events for batch in routed) == 400
        windows = [(batch.time_start, batch.time_end) for batch in routed]
        assert all(start <= end for start, end in windows)
        assert all(
            previous[1] <= following[0] for previous, following in zip(windows, windows[1:])
        )

    def test_two_streams_are_served_in_fixed_slices(self, quick_overlay):
        network, configuration = quick_overlay
        batch_size = 7
        simulator, routed = routed_batches(network, configuration, batch_size=batch_size)
        streams, context = generated_streams(network, "flash-crowd", num_events=3000, seed=13)
        assert len(streams) == 2
        report = simulator.run_streams(streams, context)
        times, _, _ = traffic_oracle.reference_merge(streams)
        starts = range(0, times.size, batch_size)
        assert report.batches == len(routed) == len(starts)
        assert all(batch.events == batch_size for batch in routed[:-1])
        for batch_index, (batch, start) in enumerate(zip(routed, starts)):
            window = times[start : start + batch_size]
            assert batch.batch_index == batch_index
            assert batch.events == window.size
            assert (batch.time_start, batch.time_end) == (window[0], window[-1])

    def test_a_single_stream_is_served_in_fixed_slices(self, tiny_network, tiny_configuration):
        # A lone stream is served as is: batch k is its events [7k, 7k + 7).
        batch_size = 7
        simulator, routed = routed_batches(tiny_network, tiny_configuration, batch_size=batch_size)
        streams, context = generated_streams(tiny_network, "uniform", num_events=100, seed=3)
        assert len(streams) == 1
        times = streams[0].times
        report = simulator.run_streams(streams, context)
        starts = range(0, times.size, batch_size)
        assert report.batches == len(routed) == len(starts)
        for batch_index, (batch, start) in enumerate(zip(routed, starts)):
            window = times[start : start + batch_size]
            assert batch.batch_index == batch_index
            assert batch.events == window.size
            assert (batch.time_start, batch.time_end) == (window[0], window[-1])
        assert [batch.events for batch in routed] == [7] * 14 + [2]

    @pytest.mark.parametrize(
        "batch_size, batches", [(1, 400), (50, 8), (400, 1), (401, 1)]
    )
    def test_batch_count_is_events_over_batch_size_rounded_up(
        self, tiny_network, tiny_configuration, batch_size, batches
    ):
        simulator, routed = routed_batches(tiny_network, tiny_configuration, batch_size=batch_size)
        report = simulator.run(workload="flash-crowd", num_events=400, seed=2)
        assert report.batches == len(routed) == batches
        assert max(batch.events for batch in routed) == min(batch_size, 400)
        assert sum(batch.events for batch in routed) == 400

    def test_zero_events_yield_an_empty_report(self, tiny_network, tiny_configuration):
        report = TrafficSimulator(tiny_network, tiny_configuration).run(num_events=0)
        assert report.events == 0
        assert report.batches == 0
        assert report.latency_ms.count == 0
        assert report.qps == 0.0


class TestRouters:
    def test_probe_k_never_beats_broadcast_recall(self, small_scenario):
        configuration = initial_configuration(small_scenario, "category")
        broadcast = TrafficSimulator(small_scenario.network, configuration).run(
            workload="replay"
        )
        probed = TrafficSimulator(
            small_scenario.network,
            configuration,
            router=ProbeKRouter(small_scenario.network, k=2),
        ).run(workload="replay")
        assert probed.recall.mean <= broadcast.recall.mean + 1e-12
        assert probed.query_messages < broadcast.query_messages

    def test_non_invariant_router_falls_back_to_per_peer_groups(
        self, tiny_network, tiny_configuration
    ):
        fast = TrafficSimulator(tiny_network, tiny_configuration).run(
            workload="replay"
        )
        slow = TrafficSimulator(
            tiny_network, tiny_configuration, router=OpaqueBroadcast(tiny_network)
        ).run(workload="replay")
        fast_payload, slow_payload = fast.to_dict(), slow.to_dict()
        fast_payload.pop("router")
        slow_payload.pop("router")
        assert fast_payload == slow_payload


class TestHooks:
    def test_query_routed_fires_per_batch_and_summary_once(
        self, tiny_network, tiny_configuration
    ):
        hooks = EventHooks()
        routed, summaries = [], []
        hooks.on_query_routed(routed.append)
        hooks.on_traffic_summary(summaries.append)
        report = TrafficSimulator(
            tiny_network, tiny_configuration, hooks=hooks, batch_size=64
        ).run(num_events=300, seed=1)
        assert len(routed) == report.batches > 1
        assert sum(event.events for event in routed) == report.events == 300
        assert [event.batch_index for event in routed] == list(range(len(routed)))
        assert len(summaries) == 1
        assert summaries[0].report is report


class TestIssuerRecallSums:
    """A cluster column's recall sums do not depend on how many columns the tables carry."""

    class WiderBroadcast(BroadcastRouter):
        """Broadcast plus the first *extra* empty slots (which cost messages, return nothing)."""

        def __init__(self, network, extra):
            super().__init__(network)
            self.extra = extra

        def target_clusters(self, issuer, configuration):
            return configuration.nonempty_clusters() + configuration.empty_clusters()[: self.extra]

    @pytest.mark.parametrize(
        "scenario", [SCENARIO_SAME_CATEGORY, SCENARIO_DIFFERENT_CATEGORY, SCENARIO_UNIFORM]
    )
    @pytest.mark.parametrize("extra", [1, 3, 8])
    def test_shared_columns_equal_broadcast(self, scenario, extra):
        data = build_scenario(scenario, ExperimentConfig.quick().scenario)
        configuration = initial_configuration(data, "random")
        assert len(configuration.empty_clusters()) >= extra
        network = data.network
        broadcast = TrafficSimulator(network, configuration).run(num_events=5000, seed=3)
        wider = TrafficSimulator(
            network, configuration, router=self.WiderBroadcast(network, extra)
        ).run(num_events=5000, seed=3)
        assert len(wider.cluster_order) == len(broadcast.cluster_order) + extra
        shared = [wider.cluster_order.index(cluster) for cluster in broadcast.cluster_order]
        assert np.array_equal(wider.issuer_recall_sums[:, shared], broadcast.issuer_recall_sums)


class TestRunValidation:
    def test_generator_instance_refuses_options(self, tiny_network, tiny_configuration):
        simulator = TrafficSimulator(tiny_network, tiny_configuration)
        with pytest.raises(ConfigurationError, match="workload_options"):
            simulator.run(workload=ReplayWorkload(), workload_options={"passes": 2})

    def test_generator_instance_is_accepted(self, tiny_network, tiny_configuration):
        report = TrafficSimulator(tiny_network, tiny_configuration).run(
            workload=ReplayWorkload(passes=2)
        )
        assert report.workload == "replay"
        assert report.events == 8  # 4 recorded occurrences x 2 passes
