"""Excess-function analysis: the executable necessary condition for strong minima.

The excess function E(t, x, r, q) = f(t,x,q) - f(t,x,r) - (q-r) f_r(t,x,r)
measures how far f is from supporting its tangent line in the slope
argument. Along a candidate trajectory of a problem whose integrand
satisfies the graininess-weighted convexity hypothesis, a strong local
minimum forces E >= 0 for every slope q; finding E < 0 therefore certifies
that the candidate is not a strong local minimum. The checks here are
sampling-based: "no violation found" is the strongest positive statement
they ever make.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidParameter
from .expressions import Lagrangian
from .variational import Trajectory, VariationalProblem, el_residual
from .variational import _LEFT, _RIGHT, _TWO_SIDED, _row_tuples, _rows


class SlopeKind(str, Enum):
    TWO_SIDED = "two-sided"
    LEFT = "left"
    RIGHT = "right"


_SLOPE_KINDS = {_TWO_SIDED: SlopeKind.TWO_SIDED, _LEFT: SlopeKind.LEFT, _RIGHT: SlopeKind.RIGHT}


class Verdict(str, Enum):
    CONSISTENT_WITH_STRONG_MIN = "consistent-with-strong-min"
    NECESSARY_CONDITION_VIOLATED = "necessary-condition-violated"
    HYPOTHESIS_NOT_MET = "hypothesis-not-met"


@dataclass(frozen=True)
class ExcessSample:
    t: float
    x_sigma: float
    r: float
    q: float
    E: float
    slope_kind: SlopeKind


@dataclass(frozen=True)
class ConvexityCounterexample:
    t: float
    x: float
    r1: float
    r2: float
    gamma: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class ConvexityReport:
    ok: bool
    counterexample: Optional[ConvexityCounterexample]
    checks: int

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class AnalysisReport:
    """Combined Euler-Lagrange, convexity-hypothesis, and excess-scan outcome.

    The verdict is hypothesis-not-met when the sampled convexity condition
    fails, necessary-condition-violated when the hypothesis held but the
    scan found E < -tol, and consistent-with-strong-min otherwise. No
    verdict ever certifies that the candidate IS a strong minimum.
    """

    el_max_residual: float
    convexity_ok: bool
    convexity_counterexample: Optional[ConvexityCounterexample]
    weierstrass_violations: tuple[ExcessSample, ...]
    verdict: Verdict


def excess(lagr: Lagrangian, t: float, x: float, r: float, q: float) -> float:
    """E(t, x, r, q) = f(t,x,q) - f(t,x,r) - (q-r) f_r(t,x,r)."""
    f_at_q = lagr.eval(t, x, q)
    f_at_r, _, f_r = lagr.partials(t, x, r)
    return float(f_at_q - f_at_r - (q - r) * f_r)


def check_convexity_condition(
    problem: VariationalProblem,
    x_samples: Sequence[float],
    r_samples: Sequence[float],
    gamma_samples: Sequence[float],
    tol: float = 1e-10,
) -> ConvexityReport:
    """Sample the graininess-weighted convexity hypothesis on [t0, t1]^kappa.

    At right-dense points the weighted condition holds vacuously (mu = 0);
    at right-scattered points it is plain convexity of f in the slope, so
    the midpoint inequality is tested over all sampled (x, r1, r2, gamma).
    Returns the first counterexample found, in deterministic scan order.
    """
    if not len(x_samples) or not len(r_samples) or not len(gamma_samples):
        raise InvalidParameter("sample lists must be nonempty")
    ts = problem.scale
    lagr = problem.lagrangian
    mu = ts.mu_values()
    i0, ik = ts.kappa_range(problem.t0, problem.t1)
    checks = 0
    for i in i0 + np.flatnonzero(mu[i0 : ik + 1]):  # trivially satisfied where mu = 0
        t = float(ts.points[i])
        for xv in x_samples:
            for r1 in r_samples:
                for r2 in r_samples:
                    if r1 == r2:
                        continue
                    f1 = lagr.eval(t, xv, r1)
                    f2 = lagr.eval(t, xv, r2)
                    for g in gamma_samples:
                        checks += 1
                        mid = g * r1 + (1.0 - g) * r2
                        lhs = lagr.eval(t, xv, mid)
                        rhs = g * f1 + (1.0 - g) * f2
                        if lhs > rhs + tol:
                            return ConvexityReport(
                                False,
                                ConvexityCounterexample(
                                    t, float(xv), float(r1), float(r2), float(g), float(lhs), float(rhs)
                                ),
                                checks,
                            )
    return ConvexityReport(True, None, checks)


def weierstrass_scan(
    problem: VariationalProblem,
    x: Trajectory,
    q_grid: Sequence[float],
    tol: float = 1e-9,
) -> list[ExcessSample]:
    """Evaluate the excess along a trajectory; collect samples with E < -tol.

    Every sample row of the functional is visited: each point of [t0, t1)
    with x(sigma(t)) and its right-going slope, and a left limit (x(t), r-)
    at registered breaks, at a left-dense window end and at the end of a
    dense run. Violations are sorted by (t, q) so concurrent evaluation
    would merge deterministically.
    """
    if not len(q_grid):
        raise InvalidParameter("q_grid must be nonempty")
    if tol < 0:
        raise InvalidParameter("tol must be nonnegative")
    lagr = problem.lagrangian
    t, xs, r, kind, _ = _rows(problem, x)
    violations: list[ExcessSample] = []
    for ti, xi, ri, ki in _row_tuples(t, xs, r, kind):
        for q in q_grid:
            e = excess(lagr, ti, xi, ri, float(q))
            if e < -tol:
                violations.append(ExcessSample(ti, xi, ri, float(q), e, _SLOPE_KINDS[ki]))
    violations.sort(key=lambda s: (s.t, s.q, s.slope_kind.value))
    return violations


def observed_slopes(problem: VariationalProblem, x: Trajectory) -> np.ndarray:
    """All candidate slopes along the trajectory (both sides at breaks)."""
    return _rows(problem, x)[2]


# Comparison slopes in a q grid unless a problem file or flag sets the count.
DEFAULT_Q_COUNT = 41


def default_q_grid(
    slopes: Iterable[float], count: int = DEFAULT_Q_COUNT, width: float = 5.0
) -> np.ndarray:
    """Comparison-slope grid spanning the observed slopes plus width*spread.

    The necessary condition quantifies over every real q, which is not
    machine checkable; the default covers a generous neighbourhood of the
    trajectory's own slopes and always includes those slopes exactly.
    """
    s = np.asarray(list(slopes), dtype=float)
    if s.size == 0:
        raise InvalidParameter("need at least one observed slope")
    spread = float(np.std(s))
    if spread < 1e-9:
        spread = 1.0
    grid = np.linspace(s.min() - width * spread, s.max() + width * spread, count)
    return np.union1d(grid, s)


def _default_x_samples(x_values: np.ndarray) -> np.ndarray:
    lo, hi = float(np.min(x_values)), float(np.max(x_values))
    if hi - lo < 1e-9:
        return np.array([lo - 1.0, lo, lo + 1.0])
    return np.linspace(lo, hi, 3)


def _default_r_samples(slopes: np.ndarray) -> np.ndarray:
    base = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    return np.union1d(base, np.array([slopes.min(), slopes.max()]))


DEFAULT_GAMMAS = (0.25, 0.5, 0.75)


def classify_candidate(
    problem: VariationalProblem,
    x: Trajectory,
    q_grid: Optional[Sequence[float]] = None,
    x_samples: Optional[Sequence[float]] = None,
    r_samples: Optional[Sequence[float]] = None,
    gamma_samples: Sequence[float] = DEFAULT_GAMMAS,
    scan_tol: float = 1e-9,
    convexity_tol: float = 1e-10,
) -> AnalysisReport:
    """Run the Euler-Lagrange, convexity, and excess checks on a candidate.

    A violated excess condition under a satisfied hypothesis certifies the
    candidate is NOT a strong local minimum; all other outcomes are
    inconclusive in the positive direction.
    """
    residual = el_residual(problem, x)
    el_max = float(np.max(np.abs(residual.values)))
    slopes = observed_slopes(problem, x)
    xs = _rows(problem, x)[1]
    convexity = check_convexity_condition(
        problem,
        x_samples if x_samples is not None else _default_x_samples(xs),
        r_samples if r_samples is not None else _default_r_samples(slopes),
        gamma_samples,
        tol=convexity_tol,
    )
    violations = tuple(
        weierstrass_scan(
            problem, x, q_grid if q_grid is not None else default_q_grid(slopes), tol=scan_tol
        )
    )
    if not convexity.ok:
        verdict = Verdict.HYPOTHESIS_NOT_MET
    elif violations:
        verdict = Verdict.NECESSARY_CONDITION_VIOLATED
    else:
        verdict = Verdict.CONSISTENT_WITH_STRONG_MIN
    return AnalysisReport(
        el_max_residual=el_max,
        convexity_ok=convexity.ok,
        convexity_counterexample=convexity.counterexample,
        weierstrass_violations=violations,
        verdict=verdict,
    )
