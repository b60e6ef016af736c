"""Benchmark — incremental vectorized kernel vs the legacy best-response loop.

Times best-response dynamics (the protocol's hot loop: score every candidate
cluster for every peer, apply the best deviation, repeat) at 50 / 200 / 500
peers with

* the **kernel** path — a :class:`~repro.game.model.ClusterGame` on its
  :class:`~repro.game.kernel.BestResponseKernel`, incrementally
  maintaining the membership/covered-recall caches, and
* the **legacy** path — ``tests/game_oracle.py``'s ``TableGame``, the
  pre-kernel implementation that rebuilds the membership matrix and the
  ``W @ M`` product every step and evaluates the new-cluster option peer
  by peer.

The speedup/parity test additionally pins the kernel run to the exact
per-query reference cost model (1e-9) and asserts the 200-peer speedup,
from the medians of 5 alternating kernel/legacy pairs run after the one
pair the benchmark entry times.

**Scaled tier** — the label-vector kernel backend at 5k and 50k peers
(at these populations the recall matrix is factored: no dense |P| x |P|
array): a single best-response round is timed and its peak RSS recorded in
``extra_info`` so the trend job gates both time *and* memory.  The 5k round
(and the >=10x labels-vs-dense assertion, against a dense kernel over a
recall matrix forced dense) runs everywhere; the 50k round is opted into
with ``REPRO_BENCH_KERNEL_FULL=1`` because its scenario alone takes ~15s to
build.  Peak RSS is ``ru_maxrss`` — a process-wide high-water mark, so it
is monotone across the (deterministically ordered) benchmarks of a run and
comparable between runs.  ``test_labels_moves_5k`` times move application:
with the covered columns live, a fixed list of 100 moves goes through the
labels kernel, which updates only the rows each mover reaches, and through
``tests/game_oracle.py``'s ``FullWidthKernel``, which updates whole columns;
the states must stay equal and the labels side must be >=3x faster on the
medians of 5 alternating pairs.  The last benchmark runs one cold 5k altruistic
``propose_all`` (Eq. 6 contributions from the factored recall) and asserts
that its ``tracemalloc`` peak stays below 128 MiB, far under the 191 MiB of
a single 5k x 5k float64 array; its timing comes from the warm rounds after
it.

Run with ``--benchmark-json BENCH_kernel.json`` (CI does) to produce the
artifact the trend job compares across runs.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from benchmarks.conftest import print_block
from repro.analysis.reporting import format_table
from repro.core.recall_matrix import WeightedRecallMatrix
from repro.datasets.scenarios import (
    SCENARIO_SAME_CATEGORY,
    ScenarioConfig,
    build_scenario,
    initial_configuration,
)
from repro.game.dynamics import run_best_response_dynamics
from repro.game.kernel import BestResponseKernel
from repro.game.model import ClusterGame
from repro.strategies.altruistic import AltruisticStrategy
from repro.strategies.base import StrategyContext
from tests.game_oracle import FullWidthKernel, TableGame

#: Population sizes (the paper's experiments use 200).
SIZES = (50, 200, 500)
#: Step budgets keeping the slow legacy path bounded at every size.
MAX_STEPS = {50: 40, 200: 25, 500: 10}
#: Kernel/legacy pairs of the speedup gate, run after the benchmark's timed pair.
SPEEDUP_PAIRS = 5

#: Opt-in for the heavy 50k-peer round (see the module docstring).
FULL_ENV = "REPRO_BENCH_KERNEL_FULL"
RUN_FULL = os.environ.get(FULL_ENV, "0").strip().lower() not in ("", "0", "false", "no")

#: Scaled-tier populations and the cluster count peers are spread over.
SCALED_SIZES = (
    pytest.param(5000, id="5000"),
    pytest.param(
        50000,
        id="50000",
        marks=pytest.mark.skipif(not RUN_FULL, reason=f"set {FULL_ENV}=1 to run"),
    ),
)
SCALED_CLUSTERS = {5000: 200, 50000: 500}
#: Moves in the move-application benchmark's fixed list, and its speedup floor.
MOVE_COUNT = 100
MOVE_SPEEDUP_FLOOR = 3.0
#: Ceiling on the traced peak of the 5k altruistic round: one 5k x 5k float64
#: array is 191 MiB, so no |P| x |P| array fits under it.
ALTRUISTIC_PEAK_LIMIT_MB = 128


def peak_rss_mb() -> float:
    """Process peak RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def scenario_frozen():
    """Freeze the long-lived scenario objects out of cyclic GC for a round.

    A 50k-peer scenario holds ~2.5M Python objects; without freezing, every
    gen-2 collection triggered by the round's allocations rescans all of
    them, which dominates (and wildly destabilises) the measured time.  The
    round allocates nothing cyclic, so freezing changes only what is
    measured: the kernel, not the collector.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def scenario_config(num_peers: int) -> ScenarioConfig:
    return ScenarioConfig(
        num_peers=num_peers,
        num_categories=10,
        documents_per_peer=6,
        terms_per_document=4,
        category_vocabulary_size=40,
        queries_per_peer=4,
        seed=7,
    )


@pytest.fixture(scope="module")
def setups():
    """Scenario/cost-model cache shared by every benchmark in the module."""
    cache = {}

    def get(num_peers: int):
        if num_peers not in cache:
            data = build_scenario(SCENARIO_SAME_CATEGORY, scenario_config(num_peers))
            configuration = initial_configuration(data, "random", seed=20)
            cost_model = data.network.cost_model()
            cache[num_peers] = (data, configuration, cost_model)
        return cache[num_peers]

    return get


def run_dynamics(cost_model, configuration, num_peers: int, *, game_type=ClusterGame):
    game = game_type(cost_model, configuration.copy())
    return run_best_response_dynamics(game, max_steps=MAX_STEPS[num_peers])


@pytest.mark.parametrize("num_peers", SIZES)
def test_kernel_best_response_dynamics(benchmark, setups, num_peers):
    _, configuration, cost_model = setups(num_peers)
    result = benchmark.pedantic(
        run_dynamics,
        args=(cost_model, configuration, num_peers),
        iterations=1,
        rounds=5,
        warmup_rounds=1,
    )
    assert result.num_steps > 0
    benchmark.extra_info["peak_rss_mb"] = round(peak_rss_mb(), 1)


@pytest.mark.parametrize("num_peers", SIZES)
def test_legacy_best_response_dynamics(benchmark, setups, num_peers):
    _, configuration, cost_model = setups(num_peers)
    result = benchmark.pedantic(
        run_dynamics,
        args=(cost_model, configuration, num_peers),
        kwargs={"game_type": TableGame},
        iterations=1,
        rounds=5,
        warmup_rounds=1,
    )
    assert result.num_steps > 0


def test_kernel_speedup_and_exact_parity(benchmark, setups):
    """200-peer dynamics: kernel >= 5x the legacy loop, costs == exact reference."""
    num_peers = 200
    data, configuration, cost_model = setups(num_peers)

    def timed(game_type):
        started = time.perf_counter()
        result = run_dynamics(cost_model, configuration, num_peers, game_type=game_type)
        return result, time.perf_counter() - started

    def compare():
        kernel_result, kernel_seconds = timed(ClusterGame)
        legacy_result, legacy_seconds = timed(TableGame)
        return kernel_result, kernel_seconds, legacy_result, legacy_seconds

    # The benchmark entry times one pair, which also warms up the gate's pairs.
    kernel_result, _, legacy_result, _ = benchmark.pedantic(compare, iterations=1, rounds=1)
    pairs = [compare() for _ in range(SPEEDUP_PAIRS)]
    kernel_seconds = statistics.median(pair[1] for pair in pairs)
    legacy_seconds = statistics.median(pair[3] for pair in pairs)

    # Identical decisions, step by step.
    assert [(s.peer_id, s.from_cluster, s.to_cluster) for s in kernel_result.steps] == [
        (s.peer_id, s.from_cluster, s.to_cluster) for s in legacy_result.steps
    ]
    for kernel_cost, legacy_cost in zip(
        kernel_result.social_cost_trace, legacy_result.social_cost_trace
    ):
        assert kernel_cost == pytest.approx(legacy_cost, abs=1e-9)

    # The kernel's final cost matches the exact per-query reference model.
    final_configuration = configuration.copy()
    kernel_game = ClusterGame(cost_model, final_configuration)
    replay = run_best_response_dynamics(kernel_game, max_steps=MAX_STEPS[num_peers])
    exact_model = data.network.cost_model(use_matrix=False)
    exact_cost = exact_model.social_cost(final_configuration, normalized=True)
    assert replay.social_cost_trace[-1] == pytest.approx(exact_cost, abs=1e-9)

    speedup = legacy_seconds / kernel_seconds
    print_block(
        f"Kernel vs legacy best-response dynamics (200 peers, median of {SPEEDUP_PAIRS} pairs)",
        format_table(
            ("path", "seconds", "steps"),
            (
                (
                    "legacy table (tests/game_oracle.py)",
                    f"{legacy_seconds:.3f}",
                    str(legacy_result.num_steps),
                ),
                ("kernel", f"{kernel_seconds:.3f}", str(kernel_result.num_steps)),
                ("speedup", f"{speedup:.1f}x", ""),
            ),
        ),
    )
    assert speedup >= 5.0, f"expected >=5x kernel speedup, measured {speedup:.1f}x"


# -- scaled tier: label-vector backend at 5k / 50k peers -------------------------


@pytest.fixture(scope="module")
def scaled_setups():
    """Per-size cache of (network, configuration, cost model) for the scaled tier.

    At these populations the recall matrix is factored — no dense |P| x |P|
    array exists anywhere on the labels path, which is what makes the 50k
    round feasible (a dense W alone would be 20 GB).
    """
    cache = {}

    def get(num_peers: int):
        if num_peers not in cache:
            data = build_scenario(SCENARIO_SAME_CATEGORY, scenario_config(num_peers))
            configuration = initial_configuration(
                data, "random", num_clusters=SCALED_CLUSTERS[num_peers], seed=20
            )
            cost_model = data.network.cost_model()
            assert cost_model.matrix.mode == "factored"
            cache[num_peers] = (data.network, configuration, cost_model)
        return cache[num_peers]

    return get


def kernel_round(cost_model, configuration):
    """One best-response round: score every nonempty cluster for every peer.

    The kernel's backend follows the cost model's recall matrix: ``labels``
    on a factored one, ``dense`` on a dense one.
    """
    kernel = BestResponseKernel(cost_model, configuration)
    responses, fallback = kernel.best_response_all(
        candidate_clusters=configuration.nonempty_clusters()
    )
    kernel.detach()
    return responses, fallback


@pytest.mark.parametrize("num_peers", SCALED_SIZES)
def test_labels_kernel_round_scaled(benchmark, scaled_setups, num_peers):
    """A full best-response round under the labels backend, time + peak RSS."""
    _, configuration, cost_model = scaled_setups(num_peers)
    with scenario_frozen():
        responses, _ = benchmark.pedantic(
            kernel_round,
            args=(cost_model, configuration),
            iterations=1,
            rounds=5 if num_peers <= 5000 else 1,
            warmup_rounds=1 if num_peers <= 5000 else 0,
        )
    assert len(responses) == num_peers
    benchmark.extra_info["num_peers"] = num_peers
    benchmark.extra_info["peak_rss_mb"] = round(peak_rss_mb(), 1)


def test_labels_vs_dense_round_5k(benchmark, scaled_setups):
    """5k-peer round: the labels backend must beat the dense backend >=10x.

    The dense side builds a recall matrix forced dense (materialising the
    |P| x |P| weights ``W``; ``V`` is never asked for) and runs a dense
    kernel on it, whose round cost is dominated by building ``W @ M`` over
    every cluster slot; the labels backend touches only per-cluster
    segments of the factored recall, so the gap widens with population.
    """
    num_peers = 5000
    network, configuration, cost_model = scaled_setups(num_peers)

    def dense_round():
        dense_model = network.cost_model(use_matrix=False)
        dense_model.attach_matrix(
            WeightedRecallMatrix(
                network.recall_model(), network.workloads(), network.peer_ids(), mode="dense"
            )
        )
        return kernel_round(dense_model, configuration)

    def compare():
        started = time.perf_counter()
        labels_responses, _ = kernel_round(cost_model, configuration)
        labels_seconds = time.perf_counter() - started
        started = time.perf_counter()
        dense_responses, _ = dense_round()
        dense_seconds = time.perf_counter() - started
        return labels_responses, labels_seconds, dense_responses, dense_seconds

    with scenario_frozen():
        labels_responses, labels_seconds, dense_responses, dense_seconds = (
            benchmark.pedantic(compare, iterations=1, rounds=1)
        )

    # Same decisions from both backends.
    assert set(labels_responses) == set(dense_responses)
    for peer_id, response in labels_responses.items():
        assert response.best_cost == pytest.approx(
            dense_responses[peer_id].best_cost, abs=1e-9
        )

    speedup = dense_seconds / labels_seconds
    print_block(
        "Labels vs dense kernel backend (5000 peers, one round)",
        format_table(
            ("backend", "seconds"),
            (
                ("dense", f"{dense_seconds:.3f}"),
                ("labels", f"{labels_seconds:.3f}"),
                ("speedup", f"{speedup:.1f}x"),
            ),
        ),
    )
    # Only lower-is-better metrics go to extra_info: the trend gate treats
    # any >threshold increase as a regression, which would misfire on an
    # *improved* speedup.
    benchmark.extra_info["peak_rss_mb"] = round(peak_rss_mb(), 1)
    assert speedup >= 10.0, f"expected >=10x labels speedup, measured {speedup:.1f}x"


def seeded_moves(configuration, count: int, seed: int):
    """``count`` moves ``(peer, from, to)`` of distinct peers, each to another nonempty cluster."""
    rng = random.Random(seed)
    clusters = configuration.nonempty_clusters()
    moves = []
    for peer_id in rng.sample(configuration.peer_ids(), count):
        source = configuration.cluster_of(peer_id)
        target = rng.choice([cluster_id for cluster_id in clusters if cluster_id != source])
        moves.append((peer_id, source, target))
    return moves


def apply_moves(kernel, moves) -> float:
    """Apply *moves* to the kernel's configuration; the seconds it took."""
    move = kernel.configuration.move
    started = time.perf_counter()
    for peer_id, source, target in moves:
        move(peer_id, source, target)
    return time.perf_counter() - started


def test_labels_moves_5k(benchmark, scaled_setups):
    """5k-peer move application: reach-bounded updates >=3x the full-width ones, same state.

    Both kernels start with the ``CW`` column of every nonempty cluster
    live, and the moves stay among those clusters, so each move updates two
    columns.  Batches alternate between the moves and
    their reversal, so each starts from the same membership, and both
    kernels play the same batches in the same order.
    """
    num_peers = 5000
    _, configuration, cost_model = scaled_setups(num_peers)
    forward = seeded_moves(configuration, MOVE_COUNT, seed=21)
    back = [(peer_id, target, source) for peer_id, source, target in reversed(forward)]
    clusters = configuration.nonempty_clusters()

    def live(kernel_type):
        kernel = kernel_type(cost_model, configuration.copy())
        assert kernel.backend == "labels"
        kernel.cost_table(clusters)
        return kernel

    with scenario_frozen():
        # The benchmark entry times a labels kernel of its own, a round trip per round.
        benchmark.pedantic(
            apply_moves,
            args=(live(BestResponseKernel), forward + back),
            iterations=1,
            rounds=10,
            warmup_rounds=1,
        )
        labels, full_width = live(BestResponseKernel), live(FullWidthKernel)
        pairs = []
        for index in range(SPEEDUP_PAIRS):
            batch = back if index % 2 else forward
            pairs.append((apply_moves(labels, batch), apply_moves(full_width, batch)))
    assert np.array_equal(labels.cost_table(clusters), full_width.cost_table(clusters))

    factored = cost_model.matrix.factored()
    row_of = cost_model.matrix.peer_index
    reached = [factored.reached_column(row_of[peer_id])[0].size for peer_id, _, _ in forward]
    labels_seconds = statistics.median(pair[0] for pair in pairs)
    full_width_seconds = statistics.median(pair[1] for pair in pairs)
    speedup = full_width_seconds / labels_seconds
    print_block(
        f"Move application at {num_peers} peers ({MOVE_COUNT} moves, "
        f"median of {SPEEDUP_PAIRS} pairs)",
        format_table(
            ("update", "seconds", "rows per column"),
            (
                ("full width (tests/game_oracle.py)", f"{full_width_seconds:.3f}", str(num_peers)),
                ("reached rows", f"{labels_seconds:.3f}", f"{statistics.fmean(reached):.0f}"),
                ("speedup", f"{speedup:.1f}x", ""),
            ),
        ),
    )
    # Lower-is-better metrics only (see test_labels_vs_dense_round_5k).
    benchmark.extra_info["moves_s"] = round(min(pair[0] for pair in pairs), 4)
    benchmark.extra_info["rows_reached_per_move"] = round(statistics.fmean(reached), 1)
    assert speedup >= MOVE_SPEEDUP_FLOOR, (
        f"expected >={MOVE_SPEEDUP_FLOOR:.0f}x over full-width updates, measured {speedup:.1f}x"
    )


def test_altruistic_round_5k(benchmark, scaled_setups):
    """Altruistic ``propose_all`` at 5k peers: traced peak memory and time.

    The first call is the first contribution request on the factored recall,
    so it also fetches the result counts: it runs once, cold, under
    ``tracemalloc``, and its peak must stay below
    :data:`ALTRUISTIC_PEAK_LIMIT_MB` (a dense |P| x |P| service matrix cannot
    come back unnoticed).  The timing — the benchmark's rounds and
    ``propose_all_s``, their minimum — comes from warm rounds after it.
    """
    num_peers = 5000
    _, configuration, cost_model = scaled_setups(num_peers)
    game = ClusterGame(cost_model, configuration.copy())
    assert game.kernel is not None  # built here, outside the measured calls
    assert game.kernel.backend == "labels"
    context = StrategyContext(game=game)
    strategy = AltruisticStrategy()
    warm_seconds = []

    def propose_round():
        started = time.perf_counter()
        movers = strategy.propose_all(game.configuration.peer_ids(), context)
        warm_seconds.append(time.perf_counter() - started)
        return movers

    with scenario_frozen():
        tracemalloc.start()
        try:
            cold_movers = strategy.propose_all(game.configuration.peer_ids(), context)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        movers = benchmark.pedantic(propose_round, iterations=1, rounds=5)

    peak_mb = peak / 2**20
    assert movers and dict(movers) == dict(cold_movers)
    benchmark.extra_info["num_peers"] = num_peers
    benchmark.extra_info["propose_all_s"] = round(min(warm_seconds), 3)
    benchmark.extra_info["tracemalloc_peak_mb"] = round(peak_mb, 1)
    assert peak_mb < ALTRUISTIC_PEAK_LIMIT_MB, (
        f"altruistic round traced {peak_mb:.0f} MiB at {num_peers} peers; "
        f"limit {ALTRUISTIC_PEAK_LIMIT_MB} MiB"
    )
