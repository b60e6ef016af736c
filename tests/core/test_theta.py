"""Tests for the cluster membership cost functions ``theta``."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.theta import (
    ConstantTheta,
    LinearTheta,
    LogarithmicTheta,
    PolynomialTheta,
    theta_from_name,
)
from repro.errors import ConfigurationError

ALL_THETAS = [LinearTheta(), LogarithmicTheta(), ConstantTheta(), PolynomialTheta(exponent=1.5)]


class TestThetaValues:
    def test_linear(self):
        theta = LinearTheta(slope=2.0)
        assert theta(5) == 10.0

    def test_logarithmic(self):
        theta = LogarithmicTheta()
        assert theta(1) == pytest.approx(1.0)
        assert theta(7) == pytest.approx(3.0)

    def test_constant(self):
        theta = ConstantTheta(value=4.0)
        assert theta(1) == 4.0
        assert theta(100) == 4.0

    def test_polynomial(self):
        theta = PolynomialTheta(exponent=2.0, scale=0.5)
        assert theta(4) == pytest.approx(8.0)

    def test_empty_cluster_costs_nothing(self):
        for theta in ALL_THETAS:
            assert theta(0) == 0.0

    def test_negative_size_rejected(self):
        for theta in ALL_THETAS:
            with pytest.raises(ValueError):
                theta(-1)


class TestThetaValidation:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LinearTheta(slope=0), "LinearTheta slope must be a finite number > 0, got 0"),
            (lambda: LinearTheta(slope=math.inf), "LinearTheta slope .* got inf"),
            (lambda: LogarithmicTheta(scale=-1), "LogarithmicTheta scale .* > 0, got -1"),
            (lambda: ConstantTheta(value=-0.1), "ConstantTheta value .* >= 0, got -0.1"),
            (lambda: ConstantTheta(value=math.nan), "ConstantTheta value .* got nan"),
            (lambda: PolynomialTheta(exponent=-1), "PolynomialTheta exponent .* >= 0, got -1"),
            (lambda: PolynomialTheta(scale=0.0), "PolynomialTheta scale .* > 0, got 0.0"),
            (lambda: LinearTheta(slope="1"), "LinearTheta slope .* > 0, got '1'"),
            (lambda: PolynomialTheta(exponent=True), "PolynomialTheta exponent .* got True"),
        ],
        ids=[
            "linear-zero",
            "linear-inf",
            "log-negative",
            "constant-negative",
            "constant-nan",
            "polynomial-negative-exponent",
            "polynomial-zero-scale",
            "linear-str",
            "polynomial-bool",
        ],
    )
    def test_invalid_parameters(self, build, message):
        with pytest.raises(ConfigurationError, match=message):
            build()

    def test_boundary_values_are_accepted(self):
        assert ConstantTheta(value=0.0)(3) == 0.0
        assert PolynomialTheta(exponent=0.0)(3) == 1.0


class TestThetaRegistry:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("linear", LinearTheta),
            ("logarithmic", LogarithmicTheta),
            ("log", LogarithmicTheta),
            ("constant", ConstantTheta),
            ("polynomial", PolynomialTheta),
        ],
    )
    def test_lookup(self, name, expected):
        assert isinstance(theta_from_name(name), expected)

    def test_lookup_is_case_insensitive(self):
        assert isinstance(theta_from_name("Linear"), LinearTheta)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            theta_from_name("exponential")

    def test_kwargs_forwarded(self):
        assert theta_from_name("linear", slope=3.0)(2) == 6.0


class TestMonotonicityProperty:
    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
    def test_monotonically_non_decreasing(self, a, b):
        small, large = min(a, b), max(a, b)
        for theta in ALL_THETAS:
            assert theta(small) <= theta(large) + 1e-12

    @given(st.integers(min_value=1, max_value=500))
    def test_positive_for_nonempty_clusters(self, size):
        for theta in ALL_THETAS:
            assert theta(size) > 0.0
            assert math.isfinite(theta(size))
