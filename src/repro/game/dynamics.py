"""Best-response dynamics.

The reformulation protocol of Section 3.2 is a coordinated, round-based way
of letting peers play the game.  As an analysis baseline (and to study
convergence in the abstract), this module provides uncoordinated
*best-response dynamics*: repeatedly pick a peer with a profitable deviation
and apply it.  The paper's Section 2.3 shows such dynamics need not converge
(no pure Nash equilibrium may exist), so the driver records whether it
stopped at an equilibrium or hit its step budget / detected a cycle.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.core.costs import NEW_CLUSTER
from repro.game.model import ClusterGame

__all__ = ["BestResponseStep", "BestResponseResult", "run_best_response_dynamics"]

PeerId = Hashable
ClusterId = Hashable


@dataclass(frozen=True)
class BestResponseStep:
    """One applied deviation: *peer_id* moved from *from_cluster* to *to_cluster* gaining *gain*."""

    step: int
    peer_id: PeerId
    from_cluster: ClusterId
    to_cluster: ClusterId
    gain: float


@dataclass
class BestResponseResult:
    """Outcome of a best-response dynamics run."""

    converged: bool
    reached_equilibrium: bool
    cycle_detected: bool
    steps: List[BestResponseStep] = field(default_factory=list)
    social_cost_trace: List[float] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        """Number of applied deviations."""
        return len(self.steps)


def run_best_response_dynamics(
    game: ClusterGame,
    *,
    max_steps: int = 1000,
    tolerance: float = 1e-9,
    detect_cycles: bool = True,
) -> BestResponseResult:
    """Run sequential best-response dynamics on *game*, mutating its configuration.

    At each step the deviating peer with the **largest** gain moves (a common
    deterministic scheduling that matches the protocol's "highest gain first"
    spirit).  The run stops when no peer gains more than *tolerance*, when a
    previously-seen configuration repeats (a best-response cycle, possible
    because no equilibrium may exist), or when *max_steps* is exhausted.
    """
    configuration = game.configuration
    result = BestResponseResult(converged=False, reached_equilibrium=False, cycle_detected=False)
    seen_signatures: Set[Tuple] = set()

    result.social_cost_trace.append(game.social_cost(normalized=True))
    if detect_cycles:
        seen_signatures.add(configuration.signature())

    for step in range(max_steps):
        best = game.best_deviation(tolerance=tolerance)
        if best is None:
            result.converged = True
            result.reached_equilibrium = True
            return result
        target: Optional[ClusterId] = best.best_cluster
        if target == NEW_CLUSTER:
            empties = configuration.empty_clusters()
            if not empties:
                # No free slot: the deviation cannot be applied; treat as converged.
                result.converged = True
                result.reached_equilibrium = False
                return result
            target = empties[0]
        configuration.move(best.peer_id, best.current_cluster, target)
        result.steps.append(
            BestResponseStep(
                step=step,
                peer_id=best.peer_id,
                from_cluster=best.current_cluster,
                to_cluster=target,
                gain=best.gain,
            )
        )
        result.social_cost_trace.append(game.social_cost(normalized=True))
        if detect_cycles:
            signature = configuration.signature()
            if signature in seen_signatures:
                result.cycle_detected = True
                result.converged = False
                return result
            seen_signatures.add(signature)

    result.converged = False
    return result
