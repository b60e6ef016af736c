"""The :class:`Simulation` facade: one session built from one :class:`SessionConfig`.

One composable entry point over the library's six moving parts (scenario,
initial configuration, cost model, strategy, router, protocol)::

    from repro import Simulation, SessionConfig

    simulation = Simulation(
        SessionConfig(scenario="same_category", strategy="selfish", scale="quick")
    )
    simulation.hooks.on_round_end(lambda event: print(event.round_number, event.social_cost))
    result = simulation.run()
    print(result.converged, result.final_social_cost)

The facade assembles exactly what the hand-wired quickstart assembles — the
same builders, the same seeds — so a facade run reproduces the hand-wired
run result for result.  Components are materialised lazily from the config,
so callers may perturb ``simulation.data.network`` before the cost model is
built, exactly like the maintenance experiments do.

Events: every simulation owns an :class:`~repro.events.EventHooks` hub,
:attr:`Simulation.hooks`, that the protocol, the maintenance loop and the
traffic simulator publish to; subscribe through its ``on_*`` registrars or
:meth:`~repro.events.EventHooks.subscribe`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.analysis.metrics import cluster_purity
from repro.core.costs import CostModel
from repro.core.theta import ThetaFunction, theta_from_name
from repro.datasets.scenarios import ScenarioData, build_scenario, initial_configuration
from repro.dynamics.periodic import PeriodicMaintenanceLoop
from repro.dynamics.schedule import DynamicsSchedule
from repro.errors import ConfigurationError
from repro.events import EventHooks
from repro.overlay.routing import QueryRouter, build_router
from repro.peers.configuration import ClusterConfiguration
from repro.peers.network import PeerNetwork
from repro.peers.statistics import PeriodStatistics
from repro.protocol.reformulation import ProtocolResult, ReformulationProtocol
from repro.session.config import SessionConfig, check_traffic_settings
from repro.session.result import (
    KIND_DISCOVERY,
    KIND_MAINTENANCE,
    KIND_TRAFFIC,
    RunResult,
)
from repro.strategies import build_strategy
from repro.strategies.base import RelocationStrategy
from repro.traffic.report import TrafficReport
from repro.traffic.simulator import DEFAULT_BATCH_SIZE, TrafficSimulator, observe_period

__all__ = ["Simulation"]


class Simulation:
    """Facade assembling and driving one simulation session.

    Parameters
    ----------
    config:
        The declarative :class:`SessionConfig` (or anything
        :meth:`SessionConfig.from_any` accepts).
    data:
        Pre-built scenario data; built lazily from *config* when omitted.
        Sharing one build lets several sessions skip the (expensive)
        scenario generation, as the experiment drivers and sweep workers do.
    hooks:
        The event hub to publish to; a fresh one when omitted.
    overrides:
        :class:`SessionConfig` fields replacing those of *config*
        (``strategy="altruistic"``, ``initial="random"``, ...); an unknown
        name raises :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(
        self,
        config: Any = None,
        *,
        data: Optional[ScenarioData] = None,
        hooks: Optional[EventHooks] = None,
        **overrides: Any,
    ) -> None:
        self.config = SessionConfig.from_any(config, **overrides)
        self.experiment_config = self.config.experiment_config()
        self.hooks = hooks if hooks is not None else EventHooks()
        self._data = data
        self._configuration: Optional[ClusterConfiguration] = None
        self._strategy: Optional[RelocationStrategy] = None
        self._theta: Optional[ThetaFunction] = None
        self._cost_model: Optional[CostModel] = None
        #: The protocol instance of the most recent :meth:`run` call.
        self.last_protocol: Optional[ReformulationProtocol] = None
        #: The maintenance loop of the most recent :meth:`run_maintenance` call.
        self.last_loop: Optional[PeriodicMaintenanceLoop] = None
        #: The full report of the most recent :meth:`run_traffic` call.
        self.last_traffic_report: Optional[TrafficReport] = None

    # -- assembled components ----------------------------------------------------

    @property
    def data(self) -> ScenarioData:
        """The scenario data (network + ground truth); built on first access."""
        if self._data is None:
            self._data = build_scenario(self.config.scenario, self.experiment_config.scenario)
        return self._data

    @property
    def network(self) -> PeerNetwork:
        """The scenario's peer network."""
        return self.data.network

    @property
    def configuration(self) -> ClusterConfiguration:
        """The (mutable) cluster configuration the protocol operates on."""
        if self._configuration is None:
            self._configuration = initial_configuration(
                self.data,
                self.config.initial,
                num_clusters=self.config.num_clusters,
                seed=self.experiment_config.seed + 13,
            )
        return self._configuration

    @property
    def theta(self) -> ThetaFunction:
        """The cluster membership cost function."""
        if self._theta is None:
            if self.config.theta_options:
                name = self.config.theta or self.experiment_config.theta_name
                self._theta = theta_from_name(name, **self.config.theta_options)
            else:
                self._theta = self.experiment_config.theta()
        return self._theta

    @property
    def strategy(self) -> RelocationStrategy:
        """The relocation strategy instance."""
        if self._strategy is None:
            self._strategy = build_strategy(
                self.config.strategy,
                mode=self.config.strategy_mode,
                **self.config.strategy_options,
            )
        return self._strategy

    @property
    def cost_model(self) -> CostModel:
        """The cost model over the network's current state (cached; see :meth:`invalidate`)."""
        if self._cost_model is None:
            self._cost_model = self.network.cost_model(
                theta=self.theta, alpha=self.experiment_config.alpha
            )
        return self._cost_model

    def router_factory(self) -> Optional[Callable[[PeerNetwork], QueryRouter]]:
        """Factory for the configured query router, or ``None`` for the default broadcast."""
        if self.config.router is None:
            return None
        name, options = self.config.router, dict(self.config.router_options)
        return lambda network: build_router(name, network, **options)

    def invalidate(self) -> None:
        """Drop the cached cost model after mutating the network (updates, churn)."""
        self._cost_model = None

    # -- running -----------------------------------------------------------------

    def _purity(self) -> Optional[float]:
        categories = self.data.data_categories
        if not any(category is not None for category in categories.values()):
            return None
        return cluster_purity(self.configuration, categories)

    def _observe(self) -> Optional[PeriodStatistics]:
        """Observe one period when the strategy needs observed statistics."""
        if getattr(self.strategy, "mode", "exact") != "observed":
            return None
        factory = self.router_factory()
        router = factory(self.network) if factory is not None else None
        return observe_period(self.network, self.configuration, router=router)

    def run(self, *, max_rounds: Optional[int] = None) -> RunResult:
        """Run the reformulation protocol to quiescence (a discovery run).

        Continues from the session's current configuration, so consecutive
        calls model consecutive maintenance passes; use :meth:`run_maintenance`
        for the full periodic loop with observation and exogenous updates.
        """
        config = self.experiment_config
        statistics = self._observe()
        protocol = ReformulationProtocol(
            self.cost_model,
            self.configuration,
            self.strategy,
            gain_threshold=config.gain_threshold,
            allow_cluster_creation=self.config.allow_cluster_creation,
            creation_cost_increase=self.config.creation_cost_increase,
            restrict_to_nonempty=self.config.restrict_to_nonempty,
            enforce_locks=self.config.enforce_locks,
            hooks=self.hooks,
        )
        self.last_protocol = protocol
        result: ProtocolResult = protocol.run(
            max_rounds=max_rounds if max_rounds is not None else config.max_rounds,
            statistics=statistics,
        )
        queries_routed = 0 if statistics is None else int(statistics.issued.sum())
        return RunResult(
            kind=KIND_DISCOVERY,
            converged=result.converged and not result.cycle_detected,
            cycle_detected=result.cycle_detected,
            rounds=result.num_rounds,
            moves=result.total_moves,
            final_social_cost=result.final_social_cost,
            final_workload_cost=result.final_workload_cost,
            cluster_count=self.configuration.num_nonempty_clusters(),
            social_cost_trace=list(result.social_cost_trace),
            workload_cost_trace=list(result.workload_cost_trace),
            cluster_count_trace=list(result.cluster_count_trace),
            message_counts=dict(result.message_counts),
            purity=self._purity(),
            queries_routed=queries_routed,
            config=self.config.to_dict(),
            protocol_result=result,
        )

    def _resolve_schedule(
        self, dynamics: Any, schedule: Optional[DynamicsSchedule]
    ) -> Optional[DynamicsSchedule]:
        """The maintenance run's dynamics schedule, bound to this session.

        Precedence: an explicit *schedule* > a *dynamics* spec > the config's
        ``dynamics`` field.
        """
        resolved = schedule
        if resolved is None:
            spec = dynamics if dynamics is not None else self.config.dynamics
            if spec is not None:
                resolved = DynamicsSchedule.from_any(spec)
        if resolved is not None:
            resolved.bind(data=self.data, seed=self.experiment_config.seed)
        return resolved

    def run_maintenance(
        self,
        periods: int,
        *,
        dynamics: Any = None,
        schedule: Optional[DynamicsSchedule] = None,
        max_rounds_per_period: Optional[int] = None,
    ) -> RunResult:
        """Run *periods* of the periodic maintenance loop (Section 4.2 setting).

        Uses the paper's maintenance defaults — fixed cluster count
        (no creation, candidates restricted to non-empty clusters) and the
        maintenance gain threshold — independent of the discovery knobs.

        Exogenous change comes from the declarative dynamics layer: a
        *dynamics* spec (or the config's ``dynamics`` field) names registered
        drift models and when they fire; pass a pre-built
        :class:`~repro.dynamics.schedule.DynamicsSchedule` via *schedule* to
        share one across runs.  Every applied drift publishes a
        ``drift_applied`` event and is summarised in ``extras["drift"]``.
        In ``observed`` strategy mode every period is observed first, and the
        result's ``message_counts`` add up the observation and protocol
        messages of all periods.
        """
        if periods < 0:
            raise ConfigurationError(f"periods must be non-negative, got {periods}")
        config = self.experiment_config
        resolved = self._resolve_schedule(dynamics, schedule)
        loop_kwargs: Dict[str, Any] = {}
        if max_rounds_per_period is not None:
            loop_kwargs["max_rounds_per_period"] = max_rounds_per_period
        loop = PeriodicMaintenanceLoop(
            self.network,
            self.configuration,
            self.strategy,
            alpha=config.alpha,
            theta=self.theta,
            gain_threshold=config.maintenance_gain_threshold,
            router_factory=self.router_factory(),
            hooks=self.hooks,
            schedule=resolved,
            **loop_kwargs,
        )
        self.last_loop = loop
        cluster_counts: List[int] = []
        drift_reports: List[Any] = []
        unsubscribers = [
            self.hooks.on_period_end(
                lambda _event: cluster_counts.append(
                    self.configuration.num_nonempty_clusters()
                )
            )
        ]
        if resolved is not None:
            unsubscribers.append(
                self.hooks.on_drift_applied(
                    lambda event: drift_reports.append(event.report)
                )
            )
        try:
            records = loop.run(periods)
        finally:
            for unsubscribe in unsubscribers:
                unsubscribe()
        self.invalidate()  # the loop's drift may have mutated the network
        final_social = records[-1].social_cost_after if records else float("nan")
        final_workload = records[-1].workload_cost_after if records else float("nan")
        result = RunResult(
            kind=KIND_MAINTENANCE,
            converged=all(record.converged for record in records) if records else True,
            rounds=sum(record.rounds for record in records),
            moves=sum(record.moves for record in records),
            final_social_cost=final_social,
            final_workload_cost=final_workload,
            cluster_count=self.configuration.num_nonempty_clusters(),
            social_cost_trace=[record.social_cost_after for record in records],
            workload_cost_trace=[record.workload_cost_after for record in records],
            cluster_count_trace=cluster_counts,
            message_counts=loop.bus.snapshot(),
            purity=self._purity(),
            periods=records,
            queries_routed=sum(record.queries_routed for record in records),
            config=self.config.to_dict(),
        )
        if resolved is not None:
            result.extras["drift"] = [report.to_dict() for report in drift_reports]
        return result

    def run_traffic(self, **overrides: Any) -> RunResult:
        """Serve a query workload against the session's current configuration.

        Replays an event stream through the
        :class:`~repro.traffic.simulator.TrafficSimulator` — typically after
        :meth:`run` or :meth:`run_maintenance` has shaped the clustering —
        and reports what the overlay delivered: latency, hops, bandwidth and
        recall distributions plus message totals.

        Settings come from the config's ``traffic`` mapping, overridden by
        keyword arguments: ``workload`` (registered generator name, default
        ``uniform``), ``workload_options``, ``num_events``, ``horizon``,
        ``link`` (a :class:`~repro.traffic.link.LinkModel` or mapping),
        ``batch_size`` and ``seed`` (defaults to the session
        seed, so traffic replays are as reproducible as everything else).
        Any other keyword raises a
        :class:`~repro.errors.ConfigurationError` naming it, as an unknown
        key of the config's mapping does when the config is built.  The
        run uses the session's configured router (broadcast by default).

        The returned :class:`RunResult` has ``kind="traffic"``; the report's
        flat scalars (``latency_p50``, ``bandwidth_p99``, ...) land in
        ``extras`` so they work directly as sweep metrics, and the full
        :class:`~repro.traffic.report.TrafficReport` is kept on
        :attr:`last_traffic_report`.
        """
        settings: Dict[str, Any] = dict(self.config.traffic or {})
        settings.update(overrides)
        check_traffic_settings(settings)
        factory = self.router_factory()
        simulator = TrafficSimulator(
            self.network,
            self.configuration,
            router=factory(self.network) if factory is not None else None,
            link=settings.get("link"),
            hooks=self.hooks,
            batch_size=int(settings.get("batch_size", DEFAULT_BATCH_SIZE)),
        )
        seed = settings.get("seed")
        if seed is None:
            seed = self.experiment_config.seed + 29  # distinct traffic stream
        report = simulator.run(
            num_events=int(settings.get("num_events", 10_000)),
            workload=settings.get("workload", "uniform"),
            workload_options=settings.get("workload_options"),
            seed=int(seed),
            horizon=float(settings.get("horizon", 1.0)),
        )
        self.last_traffic_report = report
        result = RunResult(
            kind=KIND_TRAFFIC,
            converged=True,
            cluster_count=self.configuration.num_nonempty_clusters(),
            message_counts=report.message_counts,
            purity=self._purity(),
            queries_routed=report.events,
            config=self.config.to_dict(),
        )
        result.extras.update(report.flat_metrics())
        result.extras["traffic"] = report.to_dict()
        return result

    def __repr__(self) -> str:
        return (
            f"Simulation(scenario={self.config.scenario!r}, "
            f"strategy={self.config.strategy!r}, initial={self.config.initial!r})"
        )

