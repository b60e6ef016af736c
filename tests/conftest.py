"""Shared fixtures for the test suite.

The fixtures build small, deterministic networks so tests stay fast:

* ``tiny_network`` — three hand-crafted peers whose recall values are easy to
  verify by hand,
* ``small_scenario`` — a seeded synthetic scenario (16 peers, 4 categories)
  used by protocol / experiment level tests,
* ``counterexample`` — the paper's two-peer no-equilibrium instance.

Heavier, session-scoped fixtures are cached because many tests only read
them; tests that mutate state build their own copies.
"""

from __future__ import annotations

import pytest

from repro.core.costs import CostModel
from repro.core.documents import Document
from repro.core.queries import Query
from repro.core.recall_matrix import WeightedRecallMatrix
from repro.datasets.scenarios import (
    SCENARIO_SAME_CATEGORY,
    ScenarioConfig,
    build_scenario,
)
from repro.game.equilibrium import build_two_peer_counterexample
from repro.game.model import ClusterGame
from repro.peers.configuration import ClusterConfiguration
from repro.peers.network import PeerNetwork
from repro.peers.peer import Peer
from repro.session import SessionConfig, Simulation
from repro.strategies.base import StrategyContext


def make_tiny_network() -> PeerNetwork:
    """Three peers with hand-checkable content and workloads.

    * ``alice`` holds two "music" documents and asks about "movies".
    * ``bob`` holds one "movies" document and asks about "music".
    * ``carol`` holds one "movies" and one "music" document and asks about "movies".
    """
    alice = Peer(
        "alice",
        documents=[
            Document(["music", "rock"], doc_id="a1", category="music"),
            Document(["music", "jazz"], doc_id="a2", category="music"),
        ],
    )
    bob = Peer(
        "bob",
        documents=[Document(["movies", "drama"], doc_id="b1", category="movies")],
    )
    carol = Peer(
        "carol",
        documents=[
            Document(["movies", "comedy"], doc_id="c1", category="movies"),
            Document(["music", "pop"], doc_id="c2", category="music"),
        ],
    )
    alice.issue_query(Query(["movies"]), 2)
    bob.issue_query(Query(["music"]), 1)
    carol.issue_query(Query(["movies"]), 1)
    return PeerNetwork([alice, bob, carol])


@pytest.fixture
def tiny_network() -> PeerNetwork:
    """A fresh three-peer network (safe to mutate)."""
    return make_tiny_network()


@pytest.fixture
def tiny_configuration(tiny_network) -> ClusterConfiguration:
    """alice+carol share cluster c1, bob is alone in c2 (c3 empty)."""
    return ClusterConfiguration(
        ["c1", "c2", "c3"], {"alice": "c1", "carol": "c1", "bob": "c2"}
    )


SMALL_SCENARIO_CONFIG = ScenarioConfig(
    num_peers=16,
    num_categories=4,
    documents_per_peer=5,
    terms_per_document=4,
    category_vocabulary_size=20,
    queries_per_peer=3,
    seed=5,
)


@pytest.fixture(scope="session")
def small_scenario():
    """A small same-category scenario shared (read-only) across tests."""
    return build_scenario(SCENARIO_SAME_CATEGORY, SMALL_SCENARIO_CONFIG)


def make_small_scenario(**overrides):
    """Build a fresh copy of the small scenario (for tests that mutate it)."""
    config = SMALL_SCENARIO_CONFIG
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return build_scenario(SCENARIO_SAME_CATEGORY, config)


#: The recall matrix form each kernel backend runs on.
BACKEND_MODES = {"dense": "dense", "labels": "factored"}


def cost_model_in_mode(network: PeerNetwork, mode: str, **options) -> CostModel:
    """A cost model over *network* whose recall matrix is forced to *mode*.

    The population picks the form everywhere else; this is how a test runs
    the ``labels`` kernel backend on a small network, or ``dense`` on a big one.
    """
    model = network.cost_model(use_matrix=False, **options)
    model.attach_matrix(
        WeightedRecallMatrix(
            network.recall_model(), network.workloads(), network.peer_ids(), mode=mode
        )
    )
    return model


@pytest.fixture(scope="session")
def uniform_quick():
    """Uniform-scenario sessions at ``quick`` scale and seed 7, one per initial (read-only)."""
    sessions = {}

    def get(initial: str) -> Simulation:
        if initial not in sessions:
            sessions[initial] = Simulation(
                SessionConfig(scale="quick", scenario="uniform", initial=initial, seed=7)
            )
        return sessions[initial]

    return get


def candidate_rule_contexts(simulation: Simulation, *, allow_new_clusters: bool):
    """``(configuration, kernel context, exact context)`` over a copy of the session's configuration.

    Both games are built with *allow_new_clusters*; the exact one has no
    recall matrix, so it answers peer by peer through the per-query cost
    model.
    """
    configuration = simulation.configuration.copy()
    exact_model = simulation.network.cost_model(
        theta=simulation.theta, alpha=simulation.experiment_config.alpha, use_matrix=False
    )
    return (
        configuration,
        StrategyContext(
            game=ClusterGame(
                simulation.cost_model, configuration, allow_new_clusters=allow_new_clusters
            )
        ),
        StrategyContext(
            game=ClusterGame(exact_model, configuration, allow_new_clusters=allow_new_clusters)
        ),
    )


@pytest.fixture
def counterexample():
    """The paper's two-peer no-equilibrium instance (alpha = 1)."""
    return build_two_peer_counterexample(alpha=1.0)


def assert_movers_match(batch, propose, peer_ids, *, abs=None):
    """Check ``propose_all``'s movers-only contract against per-peer ``propose``.

    Every entry of *batch* is a move equal to ``propose(peer_id)`` (source,
    target, and gain up to *abs*); every peer of *peer_ids* left out of
    *batch* stays (``propose`` returns ``None`` or a non-move).
    """
    peer_ids = list(peer_ids)
    assert set(batch) <= set(peer_ids)
    for peer_id in peer_ids:
        single = propose(peer_id)
        if peer_id not in batch:
            assert single is None or not single.is_move, peer_id
            continue
        mover = batch[peer_id]
        assert mover.is_move
        assert (mover.peer_id, mover.source_cluster, mover.target_cluster) == (
            single.peer_id,
            single.source_cluster,
            single.target_cluster,
        )
        assert mover.gain == pytest.approx(single.gain, abs=abs)
