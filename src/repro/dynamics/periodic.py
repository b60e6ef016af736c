"""Periodic maintenance loop: observation periods interleaved with protocol runs.

The paper's relocation strategies are *periodic*: every period ``T`` each peer
observes where its results come from (and whom it serves), then the
reformulation protocol runs one maintenance pass.  :class:`PeriodicMaintenanceLoop`
drives that loop end-to-end:

1. optionally apply the period's exogenous changes (workload drift, content
   drift, churn) through a :class:`~repro.dynamics.schedule.DynamicsSchedule`
   of registered drift models (each application publishes a
   ``drift_applied`` event),
2. observe the period's query traffic over the overlay
   (:func:`~repro.traffic.simulator.observe_period`) when the strategy runs
   in ``observed`` mode — the oracle (``exact``) mode needs no observation,
3. rebuild the cost model against the updated network state,
4. run the reformulation protocol until it quiesces,
5. record the social/workload cost before and after maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.theta import ThetaFunction
from repro.dynamics.schedule import DynamicsSchedule
from repro.events import (
    DRIFT_APPLIED,
    PERIOD_END,
    DriftAppliedEvent,
    EventHooks,
    PeriodEndEvent,
)
from repro.overlay.messages import MessageBus
from repro.overlay.routing import QueryRouter
from repro.peers.configuration import ClusterConfiguration
from repro.peers.network import PeerNetwork
from repro.protocol.reformulation import ProtocolResult, ReformulationProtocol
from repro.strategies.base import RelocationStrategy
from repro.traffic.simulator import observe_period

__all__ = ["PeriodRecord", "PeriodicMaintenanceLoop"]


@dataclass
class PeriodRecord:
    """What happened during one maintenance period."""

    period: int
    social_cost_before: float
    social_cost_after: float
    workload_cost_after: float
    moves: int
    rounds: int
    converged: bool
    queries_routed: int = 0

    @property
    def improvement(self) -> float:
        """Reduction of the normalised social cost achieved by this period's maintenance."""
        return self.social_cost_before - self.social_cost_after


class PeriodicMaintenanceLoop:
    """Drives periods of (change, observation, maintenance) over a network."""

    def __init__(
        self,
        network: PeerNetwork,
        configuration: ClusterConfiguration,
        strategy: RelocationStrategy,
        *,
        alpha: float = 1.0,
        theta: Optional[ThetaFunction] = None,
        gain_threshold: float = 0.001,
        allow_cluster_creation: bool = False,
        restrict_to_nonempty: bool = True,
        max_rounds_per_period: int = 100,
        router_factory: Optional[Callable[[PeerNetwork], QueryRouter]] = None,
        hooks: Optional[EventHooks] = None,
        schedule: Optional[DynamicsSchedule] = None,
    ) -> None:
        self.network = network
        self.configuration = configuration
        self.strategy = strategy
        self.alpha = alpha
        self.theta = theta
        self.gain_threshold = gain_threshold
        self.allow_cluster_creation = allow_cluster_creation
        self.restrict_to_nonempty = restrict_to_nonempty
        self.max_rounds_per_period = max_rounds_per_period
        self.router_factory = router_factory
        #: Event hub shared with the per-period protocol runs, so round and
        #: relocation events flow from maintenance too; ``period_end`` fires
        #: here after every period.
        self.hooks = hooks if hooks is not None else EventHooks()
        #: Declarative dynamics applied at the start of every period (one
        #: ``drift_applied`` event per applied model); ``None`` = no drift.
        #: The schedule must already be bound to the scenario data/seed
        #: (:meth:`DynamicsSchedule.bind`) — ``Simulation.run_maintenance``
        #: does this automatically.
        self.schedule = schedule
        self.records: List[PeriodRecord] = []
        #: Messages of every period so far: observation and protocol alike.
        self.bus = MessageBus()

    # -- internals ---------------------------------------------------------------

    def _cost_model(self):
        return self.network.cost_model(theta=self.theta, alpha=self.alpha)

    # -- public API ------------------------------------------------------------------

    def run_period(self) -> PeriodRecord:
        """Run one full period: apply the scheduled drift, observe, maintain, record."""
        period_index = len(self.records)
        if self.schedule is not None:
            reports = self.schedule.apply_period(
                self.network, self.configuration, period_index
            )
            for report in reports:
                self.hooks.emit(
                    DRIFT_APPLIED, DriftAppliedEvent(period=period_index, report=report)
                )
            if reports:
                self.network.invalidate()

        statistics = None
        if getattr(self.strategy, "mode", "exact") == "observed":
            router = self.router_factory(self.network) if self.router_factory else None
            statistics = observe_period(
                self.network, self.configuration, router=router, bus=self.bus
            )
        cost_model = self._cost_model()
        before = cost_model.social_cost(self.configuration, normalized=True)

        protocol = ReformulationProtocol(
            cost_model,
            self.configuration,
            self.strategy,
            gain_threshold=self.gain_threshold,
            allow_cluster_creation=self.allow_cluster_creation,
            restrict_to_nonempty=self.restrict_to_nonempty,
            bus=self.bus,
            hooks=self.hooks,
        )
        result: ProtocolResult = protocol.run(
            max_rounds=self.max_rounds_per_period, statistics=statistics
        )

        record = PeriodRecord(
            period=len(self.records),
            social_cost_before=before,
            social_cost_after=cost_model.social_cost(self.configuration, normalized=True),
            workload_cost_after=cost_model.workload_cost(self.configuration, normalized=True),
            moves=result.total_moves,
            rounds=result.num_rounds,
            converged=result.converged and not result.cycle_detected,
            queries_routed=0 if statistics is None else int(statistics.issued.sum()),
        )
        self.records.append(record)
        self.hooks.emit(PERIOD_END, PeriodEndEvent(record=record, protocol_result=result))
        return record

    def run(self, periods: int) -> List[PeriodRecord]:
        """Run *periods* consecutive periods."""
        if periods < 0:
            raise ValueError(f"periods must be non-negative, got {periods}")
        for _period in range(periods):
            self.run_period()
        return list(self.records)

    def social_cost_trace(self) -> List[float]:
        """Normalised social cost after each completed period."""
        return [record.social_cost_after for record in self.records]

    def __repr__(self) -> str:
        return (
            f"PeriodicMaintenanceLoop(strategy={self.strategy!r}, "
            f"periods={len(self.records)})"
        )
