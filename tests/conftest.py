"""Shared fixtures and random-instance helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from tsvar import VariationalProblem, make_harmonic, make_points, parse_lagrangian

# Every property test runs derandomized, so a run repeats exactly; each test
# sets only its own max_examples.
settings.register_profile(
    "tsvar",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("tsvar")

# Smooth expression templates whose domains cover t, x, r in [-2, 2].
SMOOTH_TEMPLATES = (
    "r^2",
    "r^2 - r^4",
    "x*r",
    "t*x + r^3",
    "sin(r) + cos(x)",
    "exp(r/3) + t",
    "log(x^2 + 1) * r",
    "sqrt(r^2 + 1)",
    "(x + r)^2 / (1 + t^2)",
    "x^2*r - 2*r + t",
)


def random_discrete_scale(rng: np.random.Generator, size: int | None = None):
    """Random strictly increasing point scale with gaps bounded away from 0."""
    n = size if size is not None else int(rng.integers(5, 40))
    gaps = rng.uniform(0.05, 1.0, n - 1)
    start = rng.uniform(-2.0, 2.0)
    return make_points(np.concatenate(([start], start + np.cumsum(gaps))))


def random_point(rng: np.random.Generator) -> tuple[float, float, float]:
    t, x, r = rng.uniform(-2.0, 2.0, 3)
    return float(t), float(x), float(r)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20090512)


@pytest.fixture
def harmonic_problem() -> VariationalProblem:
    """The harmonic-scale spike problem: minimize (x^D)^2 - (x^D)^4, x(0)=x(1)=0."""
    return VariationalProblem(
        make_harmonic(50), 0.0, 1.0, parse_lagrangian("r^2 - r^4"), 0.0, 0.0
    )
