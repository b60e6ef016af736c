"""Benchmark — 100k queries against a 200-peer clustered overlay.

Times the :class:`~repro.traffic.simulator.TrafficSimulator` serving
100 000 events against the paper's 200-peer same-category setting
(ground-truth clustering): a uniform workload with the broadcast router and
with ``probe-k``, and a two-stream ``flash-crowd`` workload with the
broadcast router, the one case that merges streams
(:func:`~repro.traffic.events.merge_streams`) before serving them in fixed
batches.  Each is the batched ``R @ M`` routing path end to end, including
workload generation.

Run with ``--benchmark-json BENCH_traffic.json`` (CI does) to produce the
artifact the trend job compares across runs.
"""

from __future__ import annotations

import pytest

from repro.datasets.scenarios import (
    SCENARIO_SAME_CATEGORY,
    ScenarioConfig,
    build_scenario,
    initial_configuration,
)
from repro.overlay.routing import ProbeKRouter
from repro.traffic.simulator import TrafficSimulator

#: The paper's evaluation population.
NUM_PEERS = 200
#: Events per replay — large enough that per-event Python work would dominate.
NUM_EVENTS = 100_000

SCENARIO = ScenarioConfig(
    num_peers=NUM_PEERS,
    num_categories=10,
    documents_per_peer=8,
    queries_per_peer=5,
    uniform_workload=True,
)


@pytest.fixture(scope="module")
def overlay():
    """The 200-peer same-category network on its ground-truth clustering."""
    data = build_scenario(SCENARIO_SAME_CATEGORY, SCENARIO)
    return data.network, initial_configuration(data, "category")


def replay(network, configuration, router=None, workload="uniform"):
    simulator = TrafficSimulator(network, configuration, router=router)
    return simulator.run(num_events=NUM_EVENTS, workload=workload, seed=0)


def test_traffic_broadcast_100k(benchmark, overlay):
    """The trend-tracked measurement: 100k broadcast queries at 200 peers."""
    network, configuration = overlay
    report = benchmark.pedantic(
        lambda: replay(network, configuration), iterations=1, rounds=3
    )
    assert report.events == NUM_EVENTS
    assert report.recall.mean > 0
    benchmark.extra_info["events"] = report.events
    benchmark.extra_info["query_messages"] = report.query_messages


def test_traffic_probe_k_100k(benchmark, overlay):
    """Same replay through the probe-k router (3 clusters per query)."""
    network, configuration = overlay
    report = benchmark.pedantic(
        lambda: replay(network, configuration, ProbeKRouter(network, k=3)),
        iterations=1,
        rounds=3,
    )
    assert report.events == NUM_EVENTS
    benchmark.extra_info["events"] = report.events
    benchmark.extra_info["query_messages"] = report.query_messages


def test_traffic_flash_crowd_100k(benchmark, overlay):
    """100k broadcast queries from two streams, a base and a burst, merged in time order."""
    network, configuration = overlay
    report = benchmark.pedantic(
        lambda: replay(network, configuration, workload="flash-crowd"),
        iterations=1,
        rounds=3,
    )
    assert report.events == NUM_EVENTS
    assert report.workload == "flash-crowd"
    benchmark.extra_info["events"] = report.events
    benchmark.extra_info["query_messages"] = report.query_messages
