"""Benchmark — 100k queries against a 200-peer clustered overlay.

Times the :class:`~repro.traffic.simulator.TrafficSimulator` serving a
100 000-event uniform workload against the paper's 200-peer same-category
setting (ground-truth clustering), once with the broadcast router and once
with ``probe-k`` — the batched ``R @ M`` routing path end to end, including
workload generation and the heap-ordered event loop.

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


def replay(network, configuration, router=None):
    simulator = TrafficSimulator(
        network, configuration, router=router, keep_log=False
    )
    return simulator.run(num_events=NUM_EVENTS, workload="uniform", seed=0)


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
