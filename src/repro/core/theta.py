"""Cluster membership cost functions (the paper's ``theta``).

Participation in a cluster imposes communication and processing costs that
grow with the cluster size.  The paper models this with a monotonically
increasing function ``theta`` of the cluster size ``|c|`` whose shape depends
on the intra-cluster topology:

* when all peers in a cluster are fully connected, ``theta`` is **linear**
  (this is the function used in the paper's evaluation);
* for structured (DHT-like) intra-cluster overlays, ``theta`` may be
  **logarithmic**;
* a **constant** function models clusters whose maintenance cost does not
  depend on size (a useful degenerate case for analysis and ablations).

Every implementation is a callable ``size -> cost`` with a ``name`` so that
experiment reports can label which function was used.
"""

from __future__ import annotations

import math
from numbers import Real

from repro.errors import ConfigurationError
from repro.registry import register_theta, theta_registry

__all__ = [
    "ThetaFunction",
    "LinearTheta",
    "LogarithmicTheta",
    "ConstantTheta",
    "PolynomialTheta",
    "theta_from_name",
]


def _check_parameter(owner: str, name: str, value: float, *, positive: bool) -> None:
    """Reject a parameter that is not a finite real number above (``positive``) or at zero."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not (math.isfinite(value) and (value > 0 if positive else value >= 0))
    ):
        bound = "> 0" if positive else ">= 0"
        raise ConfigurationError(f"{owner} {name} must be a finite number {bound}, got {value!r}")


class ThetaFunction:
    """Base class for cluster-size cost functions.

    Subclasses implement :meth:`cost`.  Instances are callable, and every
    implementation must be monotonically non-decreasing in the cluster size
    and return ``0`` for an empty cluster — the property-based tests enforce
    both invariants for all built-in functions.
    """

    name = "theta"

    def cost(self, size: int) -> float:
        """Return the membership cost of a cluster with *size* peers."""
        raise NotImplementedError

    def __call__(self, size: int) -> float:
        if size < 0:
            raise ValueError(f"cluster size must be non-negative, got {size}")
        if size == 0:
            return 0.0
        return self.cost(size)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@register_theta("linear")
class LinearTheta(ThetaFunction):
    """``theta(n) = slope * n``; the paper's fully-connected-cluster model (slope 1)."""

    name = "linear"

    def __init__(self, slope: float = 1.0) -> None:
        _check_parameter("LinearTheta", "slope", slope, positive=True)
        self.slope = slope

    def cost(self, size: int) -> float:
        return self.slope * size

    def __repr__(self) -> str:
        return f"LinearTheta(slope={self.slope})"


@register_theta("logarithmic", aliases=("log",))
class LogarithmicTheta(ThetaFunction):
    """``theta(n) = scale * log2(n + 1)``; models structured intra-cluster overlays."""

    name = "logarithmic"

    def __init__(self, scale: float = 1.0) -> None:
        _check_parameter("LogarithmicTheta", "scale", scale, positive=True)
        self.scale = scale

    def cost(self, size: int) -> float:
        return self.scale * math.log2(size + 1)

    def __repr__(self) -> str:
        return f"LogarithmicTheta(scale={self.scale})"


@register_theta("constant")
class ConstantTheta(ThetaFunction):
    """``theta(n) = value`` for every non-empty cluster."""

    name = "constant"

    def __init__(self, value: float = 1.0) -> None:
        _check_parameter("ConstantTheta", "value", value, positive=False)
        self.value = value

    def cost(self, size: int) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"ConstantTheta(value={self.value})"


@register_theta("polynomial")
class PolynomialTheta(ThetaFunction):
    """``theta(n) = scale * n ** exponent`` with ``exponent >= 0``.

    Generalises the linear model; an exponent of 2 models clusters whose
    maintenance traffic is quadratic in the membership (all-pairs gossip).
    """

    name = "polynomial"

    def __init__(self, exponent: float = 2.0, scale: float = 1.0) -> None:
        _check_parameter("PolynomialTheta", "exponent", exponent, positive=False)
        _check_parameter("PolynomialTheta", "scale", scale, positive=True)
        self.exponent = exponent
        self.scale = scale

    def cost(self, size: int) -> float:
        return self.scale * float(size) ** self.exponent

    def __repr__(self) -> str:
        return f"PolynomialTheta(exponent={self.exponent}, scale={self.scale})"


def theta_from_name(name: str, **kwargs: float) -> ThetaFunction:
    """Build a theta function from its registry *name* (``linear``, ``logarithmic``, ...).

    Raises a ``ValueError`` subclass for unknown names whose message lists the
    registered functions; new functions plug in via
    :func:`repro.registry.register_theta`.
    """
    return theta_registry.create(name, **kwargs)
