"""repro — a full reproduction of "Recall-Based Cluster Reformulation by Selfish Peers".

The library models a clustered peer-to-peer overlay in which peers decide,
based only on the recall their queries achieve, whether to move to a
different cluster.  It provides:

* the data/recall/cost model of the paper (``repro.core``),
* the peer and cluster substrate (``repro.peers``),
* the overlay substrate: routers, topologies and message accounting
  (``repro.overlay``),
* the game-theoretic view of cluster formation (``repro.game``),
* the selfish / altruistic / hybrid relocation strategies (``repro.strategies``),
* the round-based reformulation protocol (``repro.protocol``),
* the unified session API: ``Simulation`` / ``SessionConfig`` /
  ``RunResult`` (``repro.session``) over the component registries
  (``repro.registry``) and event hooks (``repro.events``),
* the parallel sweep engine: ``SweepSpec`` / ``run_sweep`` / ``SweepResult``
  (``repro.sweep``) fanning replicated experiments out over a process pool
  with deterministic per-task seed streams,
* the event-driven query-traffic simulator: ``TrafficSimulator`` /
  ``TrafficReport`` / registered arrival workloads (``repro.traffic``)
  replaying hundreds of thousands of queries against a clustering and
  reporting latency/hops/bandwidth/recall distributions, and
  ``observe_period`` feeding the cid-annotated observations of one period
  to the ``observed`` strategy mode,
* dataset generators, dynamics, baselines, analysis utilities and the
  experiment drivers that regenerate every table and figure of the paper.

Quickstart::

    from repro import Simulation, SessionConfig

    result = Simulation(
        SessionConfig(scenario="same_category", strategy="selfish", scale="quick")
    ).run()
    print(result.converged, result.final_social_cost)

Every component is selected by registry name; plug in your own with the
``repro.registry`` decorators (``@register_strategy``, ``@register_theta``,
``@register_scenario``, ``@register_router``, ``@register_initializer``,
``@register_workload``)
and they become usable from ``SessionConfig``, the CLI and the experiment
drivers.  Subscribe to protocol events, through the session's event hub,
instead of post-hoc traces::

    simulation = Simulation(SessionConfig(scale="quick"))
    simulation.hooks.on_round_end(lambda event: print(event.round_number, event.social_cost))
    simulation.run()

Low-level API (what the facade assembles for you)::

    from repro import (
        ExperimentConfig, build_scenario, initial_configuration,
        ReformulationProtocol, SelfishStrategy, SCENARIO_SAME_CATEGORY,
    )

    config = ExperimentConfig.quick()
    data = build_scenario(SCENARIO_SAME_CATEGORY, config.scenario)
    configuration = initial_configuration(data, "singletons")
    cost_model = data.network.cost_model(alpha=config.alpha)
    protocol = ReformulationProtocol(cost_model, configuration, SelfishStrategy())
    result = protocol.run()
    print(result.converged, result.final_social_cost)
"""

from repro.baselines import GlobalReclustering, RandomRelocationStrategy, StaticStrategy
from repro.core import (
    AttributeSet,
    CostModel,
    Document,
    DocumentCollection,
    InvertedIndex,
    LinearTheta,
    LogarithmicTheta,
    NEW_CLUSTER,
    Query,
    QueryWorkload,
    RecallModel,
    ThetaFunction,
    Vocabulary,
    WeightedRecallMatrix,
    theta_from_name,
)
from repro.datasets import (
    SCENARIO_DIFFERENT_CATEGORY,
    SCENARIO_SAME_CATEGORY,
    SCENARIO_UNIFORM,
    CorpusConfig,
    CorpusGenerator,
    ScenarioConfig,
    ScenarioData,
    build_scenario,
    category_configuration,
    initial_configuration,
)
from repro.errors import (
    ConfigurationError,
    DatasetError,
    DuplicateComponentError,
    ProtocolError,
    RegistryError,
    ReproError,
    StrategyError,
    UnknownClusterError,
    UnknownComponentError,
    UnknownPeerError,
)
from repro.dynamics import (
    DriftModel,
    DriftReport,
    DriftRule,
    DynamicsSchedule,
    build_drift_model,
)
from repro.events import (
    CostTraceRecorder,
    DriftAppliedEvent,
    EventHooks,
    PeriodEndEvent,
    RelocationGrantedEvent,
    RoundEndEvent,
    SweepEndEvent,
    TaskFinishedEvent,
    TaskLoadedEvent,
    TaskSkippedEvent,
    TaskStartedEvent,
)
from repro.experiments import (
    ExperimentConfig,
    build_strategy,
    run_all,
    run_figure1,
    run_figure2,
    run_figure3,
    run_figure4,
    run_table1,
)
from repro.game import (
    BestResponse,
    ClusterGame,
    build_two_peer_counterexample,
    find_pure_nash_equilibria,
    run_best_response_dynamics,
)
from repro.overlay import BroadcastRouter, MessageBus, ProbeKRouter
from repro.peers import Cluster, ClusterConfiguration, Peer, PeerNetwork
from repro.protocol import ProtocolResult, ReformulationProtocol
from repro.registry import (
    ComponentRegistry,
    register_drift,
    register_executor,
    register_initializer,
    register_router,
    register_runner,
    register_scenario,
    register_strategy,
    register_theta,
)
from repro.session import RunResult, SessionConfig, Simulation
from repro.sweep import (
    ResultStore,
    Runner,
    SweepExecutor,
    SweepResult,
    SweepSpec,
    SweepTask,
    run_sweep,
    task_hash,
)
from repro.strategies import (
    AltruisticStrategy,
    HybridStrategy,
    RelocationProposal,
    SelfishStrategy,
    StrategyContext,
)
from repro.registry import register_workload
from repro.traffic import (
    LinkModel,
    QueryEventStream,
    TrafficLog,
    TrafficReport,
    TrafficSimulator,
    WorkloadContext,
    WorkloadGenerator,
    build_workload,
    observe_period,
)

#: Kept in sync with ``pyproject.toml``.
__version__ = "1.1.0"

__all__ = [
    "__version__",
    # session API
    "Simulation",
    "SessionConfig",
    "RunResult",
    # sweep engine
    "SweepSpec",
    "SweepTask",
    "SweepResult",
    "run_sweep",
    "Runner",
    "SweepExecutor",
    "ResultStore",
    "task_hash",
    # registries
    "ComponentRegistry",
    "register_strategy",
    "register_theta",
    "register_scenario",
    "register_router",
    "register_initializer",
    "register_runner",
    "register_drift",
    "register_workload",
    "register_executor",
    # traffic
    "TrafficSimulator",
    "TrafficReport",
    "TrafficLog",
    "QueryEventStream",
    "LinkModel",
    "WorkloadContext",
    "WorkloadGenerator",
    "build_workload",
    "observe_period",
    # dynamics
    "DriftModel",
    "DriftReport",
    "DriftRule",
    "DynamicsSchedule",
    "build_drift_model",
    # events
    "EventHooks",
    "RoundEndEvent",
    "RelocationGrantedEvent",
    "PeriodEndEvent",
    "DriftAppliedEvent",
    "TaskStartedEvent",
    "TaskFinishedEvent",
    "TaskSkippedEvent",
    "TaskLoadedEvent",
    "SweepEndEvent",
    "CostTraceRecorder",
    # core
    "AttributeSet",
    "Vocabulary",
    "Document",
    "DocumentCollection",
    "Query",
    "QueryWorkload",
    "InvertedIndex",
    "RecallModel",
    "WeightedRecallMatrix",
    "CostModel",
    "NEW_CLUSTER",
    "ThetaFunction",
    "LinearTheta",
    "LogarithmicTheta",
    "theta_from_name",
    # peers
    "Peer",
    "Cluster",
    "ClusterConfiguration",
    "PeerNetwork",
    # overlay
    "MessageBus",
    "BroadcastRouter",
    "ProbeKRouter",
    # game
    "ClusterGame",
    "BestResponse",
    "run_best_response_dynamics",
    "build_two_peer_counterexample",
    "find_pure_nash_equilibria",
    # strategies
    "SelfishStrategy",
    "AltruisticStrategy",
    "HybridStrategy",
    "RelocationProposal",
    "StrategyContext",
    # protocol
    "ReformulationProtocol",
    "ProtocolResult",
    # datasets
    "CorpusConfig",
    "CorpusGenerator",
    "ScenarioConfig",
    "ScenarioData",
    "build_scenario",
    "initial_configuration",
    "category_configuration",
    "SCENARIO_SAME_CATEGORY",
    "SCENARIO_DIFFERENT_CATEGORY",
    "SCENARIO_UNIFORM",
    # baselines
    "GlobalReclustering",
    "RandomRelocationStrategy",
    "StaticStrategy",
    # experiments
    "ExperimentConfig",
    "build_strategy",
    "run_table1",
    "run_figure1",
    "run_figure2",
    "run_figure3",
    "run_figure4",
    "run_all",
    # errors
    "ReproError",
    "ConfigurationError",
    "UnknownPeerError",
    "UnknownClusterError",
    "ProtocolError",
    "DatasetError",
    "StrategyError",
    "RegistryError",
    "UnknownComponentError",
    "DuplicateComponentError",
]
