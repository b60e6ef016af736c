"""The periodic cluster reformulation protocol (Section 3.2).

:class:`ReformulationProtocol` drives rounds until either no peer issues a
relocation request any more (the paper's stop condition), a configuration
repeats (a cycle — the game need not have an equilibrium), or a round budget
is exhausted.  It records the social and workload cost after every round so
that Figure 1 can be regenerated directly from a run.

Two behaviours of the paper are configurable:

* **gain threshold ε** — a peer only issues a request if its gain exceeds ε;
* **cluster creation** — a peer whose cost increased significantly since the
  previous period and that cannot improve by joining any existing cluster may
  move to an empty cluster slot.  Section 4.2 keeps the number of clusters
  fixed: ``restrict_to_nonempty=True`` limits every peer's candidates to the
  non-empty clusters, so the cluster count cannot rise whatever
  ``allow_cluster_creation`` says.

One :class:`~repro.game.model.ClusterGame` serves a protocol for all its
rounds; its kernel follows the configuration's moves incrementally.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.costs import CostModel
from repro.events import (
    RELOCATION_GRANTED,
    ROUND_END,
    EventHooks,
    RelocationGrantedEvent,
    RoundEndEvent,
)
from repro.game.model import ClusterGame
from repro.overlay.messages import MessageBus
from repro.peers.configuration import ClusterConfiguration
from repro.peers.statistics import PeriodStatistics
from repro.protocol.rounds import RoundResult, execute_round
from repro.strategies.base import MoverBatch, RelocationStrategy, StrategyContext

__all__ = ["ProtocolResult", "ReformulationProtocol"]

PeerId = Hashable
ClusterId = Hashable


@dataclass
class ProtocolResult:
    """Outcome of a full protocol run."""

    converged: bool
    cycle_detected: bool
    rounds: List[RoundResult] = field(default_factory=list)
    social_cost_trace: List[float] = field(default_factory=list)
    workload_cost_trace: List[float] = field(default_factory=list)
    cluster_count_trace: List[int] = field(default_factory=list)
    message_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def num_rounds(self) -> int:
        """Number of rounds in which at least one request was advertised."""
        return sum(1 for round_result in self.rounds if not round_result.quiescent)

    @property
    def total_moves(self) -> int:
        """Total number of granted relocations across all rounds."""
        return sum(round_result.num_granted for round_result in self.rounds)

    @property
    def final_social_cost(self) -> float:
        """Normalised social cost after the last round."""
        return self.social_cost_trace[-1] if self.social_cost_trace else float("nan")

    @property
    def final_workload_cost(self) -> float:
        """Normalised workload cost after the last round."""
        return self.workload_cost_trace[-1] if self.workload_cost_trace else float("nan")

    @property
    def final_cluster_count(self) -> int:
        """Number of non-empty clusters after the last round."""
        return self.cluster_count_trace[-1] if self.cluster_count_trace else 0

    def traces_consistent(self) -> bool:
        """Whether the three per-round traces have equal lengths."""
        return (
            len(self.social_cost_trace)
            == len(self.workload_cost_trace)
            == len(self.cluster_count_trace)
        )

    def equalize_traces(self) -> None:
        """Truncate the cost/cluster traces to a common length.

        The protocol appends to all three traces together, so they are equal
        for every exit path (quiescence, all-blocked, cycle, round budget);
        this guard keeps that invariant even if a subscriber or subclass
        appends to one trace mid-run, so the ``final_*`` properties always
        describe one single configuration.
        """
        length = min(
            len(self.social_cost_trace),
            len(self.workload_cost_trace),
            len(self.cluster_count_trace),
        )
        del self.social_cost_trace[length:]
        del self.workload_cost_trace[length:]
        del self.cluster_count_trace[length:]


class ReformulationProtocol:
    """Round-based, representative-coordinated cluster maintenance."""

    def __init__(
        self,
        cost_model: CostModel,
        configuration: ClusterConfiguration,
        strategy: RelocationStrategy,
        *,
        gain_threshold: float = 0.0,
        allow_cluster_creation: bool = True,
        creation_cost_increase: float = 0.0,
        restrict_to_nonempty: bool = False,
        enforce_locks: bool = True,
        bus: Optional[MessageBus] = None,
        hooks: Optional[EventHooks] = None,
    ) -> None:
        self.cost_model = cost_model
        self.configuration = configuration
        self.strategy = strategy
        self.gain_threshold = gain_threshold
        self.allow_cluster_creation = allow_cluster_creation
        self.creation_cost_increase = creation_cost_increase
        self.restrict_to_nonempty = restrict_to_nonempty
        self.enforce_locks = enforce_locks
        self.bus = bus if bus is not None else MessageBus()
        #: Event hub publishing ``round_end`` / ``relocation_granted`` events;
        #: subscribe via ``protocol.hooks.on_round_end(...)`` or pass a shared
        #: :class:`~repro.events.EventHooks` in.
        self.hooks = hooks if hooks is not None else EventHooks()
        #: The game every round plays, built once: its kernel's vectorized
        #: membership / covered-recall caches persist across rounds.
        #: Restricting the candidates wins over allowed creation.
        self.game = ClusterGame(
            cost_model,
            configuration,
            allow_new_clusters=allow_cluster_creation and not restrict_to_nonempty,
        )
        self._previous_costs: Optional[Dict[PeerId, float]] = None

    # -- helpers -----------------------------------------------------------------

    def _filter_new_cluster_proposals(self, movers: MoverBatch) -> Tuple[MoverBatch, int]:
        """Apply the paper's cluster-creation precondition.

        A mover targeting a fresh cluster is dropped when cluster creation
        is disabled.  Otherwise it is kept when no previous period is known,
        when ``creation_cost_increase`` is zero, or when the peer's cost has
        increased by at least ``creation_cost_increase`` since the end of the
        previous period.  Only the movers that target
        :data:`~repro.core.costs.NEW_CLUSTER` are looked at.

        Returns the kept movers and the number of gain reports the dropped
        ones do not send (one per cluster membership).
        """
        previous_costs = self._previous_costs
        if self.allow_cluster_creation and (
            self.creation_cost_increase <= 0.0 or previous_costs is None
        ):
            return movers, 0
        positions, peer_ids = movers.creating()
        if self.allow_cluster_creation:

            def may_create(peer_id: PeerId) -> bool:
                previous = previous_costs.get(peer_id)
                return (
                    previous is None
                    or self.game.current_cost(peer_id) - previous
                    >= self.creation_cost_increase
                )

            positions = [k for k in positions if not may_create(movers.peer_at(k))]
            peer_ids = [peer_id for peer_id in peer_ids if not may_create(peer_id)]
        if not positions and not peer_ids:
            return movers, 0
        configuration = self.configuration
        # An array mover belongs to exactly one cluster.
        dropped = len(positions) + sum(
            len(configuration.clusters_of(peer_id))
            for peer_id in peer_ids
            if peer_id in configuration
        )
        return movers.without(positions, peer_ids), dropped

    def _record_costs(self, result: ProtocolResult) -> None:
        result.social_cost_trace.append(self.game.social_cost(normalized=True))
        result.workload_cost_trace.append(self.game.workload_cost(normalized=True))
        result.cluster_count_trace.append(self.configuration.num_nonempty_clusters())

    def _publish_round(self, round_result: RoundResult, result: ProtocolResult) -> None:
        """Publish the round's relocation and round-end events."""
        for move in round_result.granted:
            self.hooks.emit(
                RELOCATION_GRANTED,
                RelocationGrantedEvent(round_number=round_result.round_number, move=move),
            )
        self.hooks.emit(
            ROUND_END,
            RoundEndEvent(
                round_number=round_result.round_number,
                result=round_result,
                social_cost=result.final_social_cost,
                workload_cost=result.final_workload_cost,
                cluster_count=result.final_cluster_count,
            ),
        )

    # -- main drivers -------------------------------------------------------------

    def run_round(
        self,
        round_number: int,
        *,
        statistics: Optional[PeriodStatistics] = None,
    ) -> RoundResult:
        """Run a single two-phase round against the current configuration.

        Every assigned peer reports its gain to the representative of each
        cluster it belongs to, so the round counts one ``GainReportMessage``
        per cluster membership, less the memberships of the movers whose
        proposal the cluster-creation precondition drops (those never
        report).  The movers left go to :func:`execute_round`.
        """
        configuration = self.configuration
        context = StrategyContext(
            game=self.game, statistics=statistics, previous_costs=self._previous_costs
        )
        movers = MoverBatch.of(self.strategy.propose_all(configuration.peer_ids(), context))
        kept, dropped = self._filter_new_cluster_proposals(movers)
        self.bus.add("GainReportMessage", configuration.num_memberships() - dropped)
        return execute_round(
            configuration,
            kept,
            round_number=round_number,
            gain_threshold=self.gain_threshold,
            bus=self.bus,
            enforce_locks=self.enforce_locks,
        )

    def run(
        self,
        *,
        max_rounds: int = 500,
        statistics: Optional[PeriodStatistics] = None,
        detect_cycles: bool = True,
    ) -> ProtocolResult:
        """Run rounds until quiescence, a cycle, or the round budget is exhausted."""
        result = ProtocolResult(converged=False, cycle_detected=False)
        self._record_costs(result)
        seen_signatures: Set[Tuple] = set()
        if detect_cycles:
            seen_signatures.add(self.configuration.signature())

        for round_number in range(max_rounds):
            round_result = self.run_round(round_number, statistics=statistics)
            result.rounds.append(round_result)
            if round_result.quiescent:
                result.converged = True
                self._publish_round(round_result, result)
                break
            self._record_costs(result)
            self._publish_round(round_result, result)
            if round_result.num_granted == 0:
                # Requests were issued but none could be served (all blocked);
                # the configuration cannot change any further this way.
                result.converged = True
                break
            if detect_cycles:
                signature = self.configuration.signature()
                if signature in seen_signatures:
                    result.cycle_detected = True
                    break
                seen_signatures.add(signature)

        self._previous_costs = self.game.current_costs()
        result.message_counts = self.bus.snapshot()
        result.equalize_traces()
        return result

    def remember_current_costs(self) -> None:
        """Snapshot every peer's current cost as the "previous period" baseline.

        Call this before applying workload/content updates so the
        cluster-creation rule can compare against pre-update costs.
        """
        self._previous_costs = self.game.current_costs()

    def __repr__(self) -> str:
        return (
            f"ReformulationProtocol(strategy={self.strategy!r}, "
            f"threshold={self.gain_threshold}, clusters={self.configuration.num_nonempty_clusters()})"
        )
