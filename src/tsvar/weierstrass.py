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

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DomainError, InvalidParameter
from .expressions import Lagrangian, Number, _varies, check, eval_ast, eval_rows
from .timescale import evenly_spaced
from .variational import Trajectory, VariationalProblem, el_residual
from .variational import _LEFT, _RIGHT, _TWO_SIDED, _rows


class SlopeKind(str, Enum):
    TWO_SIDED = "two-sided"
    LEFT = "left"
    RIGHT = "right"


_SLOPE_KINDS = {_TWO_SIDED: SlopeKind.TWO_SIDED, _LEFT: SlopeKind.LEFT, _RIGHT: SlopeKind.RIGHT}


class Verdict(str, Enum):
    CONSISTENT_WITH_STRONG_MIN = "consistent-with-strong-min"
    NECESSARY_CONDITION_VIOLATED = "necessary-condition-violated"
    HYPOTHESIS_NOT_MET = "hypothesis-not-met"


class ExcessTable:
    """The samples of an excess scan with E < -tol, held as columns.

    t, x_sigma, r, q and E are float64 arrays and kind holds int8
    slope-kind codes, each the position of its member in SlopeKind (0
    two-sided, 1 left, 2 right), one entry per sample, in the order the scan
    found them. The columns are read-only; len() counts the samples, and
    two tables are equal when their columns are. Like arrays, tables are
    unhashable.
    """

    __slots__ = ("t", "x_sigma", "r", "q", "E", "kind")

    def __init__(self, t, x_sigma, r, q, E, kind):
        columns = [np.asarray(c, dtype=float).view() for c in (t, x_sigma, r, q, E)]
        columns.append(np.asarray(kind, dtype=np.int8).view())
        if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
            raise InvalidParameter("excess table columns must be 1-d and of one length")
        for name, column in zip(self.__slots__, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __setattr__(self, name, value):
        raise AttributeError(f"ExcessTable is read-only: cannot set {name!r}")

    def __len__(self) -> int:
        return self.t.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExcessTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c)) for c in self.__slots__)

    def __repr__(self) -> str:
        return f"ExcessTable({len(self)} samples)"


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
    weierstrass_violations: ExcessTable
    verdict: Verdict


def excess(lagr: Lagrangian, t: Number, x: Number, r: Number, q: Number) -> Number:
    """E(t, x, r, q) = f(t,x,q) - f(t,x,r) - (q-r) f_r(t,x,r).

    Arrays are broadcast together as in Lagrangian.eval, and each term spans
    only the axes of its own arguments: f and f_r at a column of (t, x, r)
    rows are evaluated once for a whole row of q. Scalars give a float. An
    error is the one a loop over the broadcast rows meets first, each row
    evaluating f at q, then f and f_r at r (see eval_rows), and names
    that row's t, x, r and q; so does the DomainError of an E that
    overflows although f and f_r are finite.
    """

    def row(c: dict):
        f_at_q = eval_ast(lagr.ast, {"t": c["t"], "x": c["x"], "r": c["q"]})
        at_r = {"t": c["t"], "x": c["x"], "r": c["r"]}
        f_at_r, slope = eval_ast(lagr.ast, at_r), eval_ast(lagr._first[2], at_r)
        value = f_at_q - f_at_r - (c["q"] - c["r"]) * slope
        check(~np.isfinite(value), DomainError, f"overflow in the excess of '{lagr.source}'")
        return value

    out, error = eval_rows(row, {"t": t, "x": x, "r": r, "q": q})
    if error is not None:
        raise error
    return float(out) if out.ndim == 0 else out


# Rows of one block of the convexity sweep or of the excess scan: the
# array temporaries stay bounded whatever the window and sample sizes.
_BLOCK_ROWS = 1 << 15
# How far f at a midpoint may exceed the chord before the convexity check fails.
CONVEXITY_TOL = 1e-10


def check_convexity_condition(
    problem: VariationalProblem,
    x_samples: Sequence[float],
    r_samples: Sequence[float],
    gamma_samples: Sequence[float],
) -> ConvexityReport:
    """Sample the graininess-weighted convexity hypothesis on [t0, t1]^kappa.

    At right-dense points the weighted condition holds vacuously (mu = 0);
    at right-scattered points it is plain convexity of f in the slope, so
    the midpoint inequality is tested, up to CONVEXITY_TOL, over all sampled
    (x, r1, r2, gamma) with r1 != r2. Returns the first counterexample
    found, in deterministic scan order (t, x, r1, r2, gamma), with the
    number of checks made up to it; a domain error is raised only if no
    counterexample precedes it.

    An f without t makes the same checks at every point, bit for bit, so
    only the first point is evaluated; the report is the one a sweep of all
    points gives, and on success checks counts the checks of every point
    the verdict covers.
    """
    xs, rs, gs = (np.asarray(s, dtype=float) for s in (x_samples, r_samples, gamma_samples))
    for name, s in (("x_samples", xs), ("r_samples", rs), ("gamma_samples", gs)):
        if s.ndim != 1 or not s.size or not np.isfinite(s).all():
            raise InvalidParameter(f"{name} must be a nonempty 1-d sequence of finite numbers")
    if not ((gs >= 0.0) & (gs <= 1.0)).all():
        raise InvalidParameter("gamma_samples must lie in [0, 1]")
    ts = problem.scale
    lagr = problem.lagrangian
    mu = ts.mu_values()
    i0, ik = ts.kappa_range(problem.t0, problem.t1)
    points = ts.points[i0 + np.flatnonzero(mu[i0 : ik + 1])]  # trivially satisfied where mu = 0
    first, second = np.nonzero(rs[:, None] != rs[None, :])
    # one check per (t, x, pair, gamma), in scan order
    x_col = xs[None, :, None, None]
    r1, r2 = rs[first][None, None, :, None], rs[second][None, None, :, None]
    g = gs[None, None, None, :]
    per_point = xs.size * first.size * gs.size
    block = max(1, _BLOCK_ROWS // max(per_point, 1))

    def midpoint_sides(c: dict) -> tuple:
        """(f at the midpoint, the chord) for each check; f1, f2, mid in the loop's order."""

        def f(r):
            return eval_ast(lagr.ast, {"t": c["t"], "x": c["x"], "r": r})

        f1, f2 = f(c["r1"]), f(c["r2"])
        lhs = f(c["g"] * c["r1"] + (1.0 - c["g"]) * c["r2"])
        return lhs, c["g"] * f1 + (1.0 - c["g"]) * f2

    swept = points if _varies(lagr.ast, "t") else points[:1]
    checks = 0
    # the first point alone: a Lagrangian that is not convex in r mostly fails there
    edges = sorted({0, *range(1, swept.size, block), swept.size})
    for start, stop in zip(edges, edges[1:]):
        t = swept[start:stop, None, None, None]
        env = {"t": t, "x": x_col, "r1": r1, "r2": r2, "g": g}
        sides, error = eval_rows(midpoint_sides, env)
        if sides is not None:
            lhs, rhs = (np.ravel(side) for side in sides)
            hit = np.flatnonzero(lhs > rhs + CONVEXITY_TOL)
            if hit.size:
                k = int(hit[0])
                it, ix, ip, ig = np.unravel_index(k, (t.shape[0], xs.size, first.size, gs.size))
                return ConvexityReport(
                    False,
                    ConvexityCounterexample(
                        float(t[it, 0, 0, 0]), float(xs[ix]), float(rs[first[ip]]),
                        float(rs[second[ip]]), float(gs[ig]), float(lhs[k]), float(rhs[k]),
                    ),
                    checks + k + 1,
                )
        if error is not None:
            raise error
        checks += t.shape[0] * per_point
    return ConvexityReport(True, None, points.size * per_point)


def weierstrass_scan(
    problem: VariationalProblem,
    x: Trajectory,
    q_grid: Sequence[float],
    tol: float = 1e-9,
) -> ExcessTable:
    """Evaluate the excess along a trajectory; collect samples with E < -tol.

    Every sample row of the functional is visited: each point of [t0, t1)
    with x(sigma(t)) and its right-going slope, and a left limit (x(t), r-)
    at registered breaks, at a left-dense window end and at the end of a
    dense run. Each block of rows is one excess() call over rows x q, so an
    error is the one excess() meets first row by row; E needs f and f_r
    only, so a row where f_x fails, such as sqrt(x) at x = 0, is scanned
    like any other. Violations come in the order the scan finds them: by
    row, in the row order of the functional (by t, a left limit before the
    right-going row of its node), and within a row in the order of q_grid.
    """
    q = np.asarray(q_grid, dtype=float)
    if q.ndim != 1 or not q.size:
        raise InvalidParameter("q_grid must be a nonempty 1-d sequence")
    if not np.isfinite(q).all():
        raise InvalidParameter("q_grid must be finite")
    if not tol >= 0:  # NaN too, which would find no violation
        raise InvalidParameter("tol must be nonnegative")
    t, xs, r, kind, _ = _rows(problem, x)
    block = max(1, _BLOCK_ROWS // q.size)
    hits = []
    for start in range(0, t.size, block):
        rows = slice(start, start + block)
        E = excess(problem.lagrangian, t[rows, None], xs[rows, None], r[rows, None], q)
        i, j = np.nonzero(E < -tol)
        hits.append((i + start, j, E[i, j]))
    i, j, e = (np.concatenate(column) for column in zip(*hits))
    return ExcessTable(t[i], xs[i], r[i], q[j], e, kind[i])


def observed_slopes(problem: VariationalProblem, x: Trajectory) -> np.ndarray:
    """All candidate slopes along the trajectory (both sides at breaks)."""
    return _rows(problem, x)[2]


# Comparison slopes in a q grid unless a problem file or flag sets the count.
DEFAULT_Q_COUNT = 41
# Most grid points a q count may ask for; checked before a grid is allocated.
MAX_Q_COUNT = 10**6


def default_q_grid(slopes: Iterable[float], count: int = DEFAULT_Q_COUNT) -> np.ndarray:
    """Comparison-slope grid spanning the observed slopes plus 5 times their spread.

    The necessary condition quantifies over every real q, which is not
    machine checkable; the default covers a generous neighbourhood of the
    trajectory's own slopes and always includes those slopes exactly.
    """
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise InvalidParameter(f"q count {count!r} is not an integer")
    if count < 1:
        raise InvalidParameter(f"q count {count} is below 1")
    if count > MAX_Q_COUNT:
        raise InvalidParameter(f"q count {count} exceeds the limit of {MAX_Q_COUNT:,}")
    s = np.asarray(list(slopes), dtype=float)
    if s.size == 0:
        raise InvalidParameter("need at least one observed slope")
    with np.errstate(over="ignore", invalid="ignore"):
        spread = float(np.std(s))
        if not math.isfinite(spread):  # the squares overflow above about 1.3e154
            peak = float(np.max(np.abs(s)))
            spread = peak * float(np.std(s / peak))
        if spread < 1e-9:
            spread = 1.0
        grid = np.linspace(s.min() - 5.0 * spread, s.max() + 5.0 * spread, count)
    if not np.isfinite(grid).all():
        peak = float(np.max(np.abs(s)))
        raise InvalidParameter(f"slopes up to {peak!r} overflow the default q grid; set q_min and q_max")
    return np.union1d(grid, s)


def _default_x_samples(x_values: np.ndarray) -> np.ndarray:
    lo, hi = float(np.min(x_values)), float(np.max(x_values))
    if hi - lo < 1e-9:
        return np.array([lo - 1.0, lo, lo + 1.0])
    return evenly_spaced(lo, hi, 3)


def _default_r_samples(slopes: np.ndarray) -> np.ndarray:
    base = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    return np.union1d(base, np.array([slopes.min(), slopes.max()]))


DEFAULT_GAMMAS = (0.25, 0.5, 0.75)


def classify_candidate(
    problem: VariationalProblem,
    x: Trajectory,
    q_grid: Optional[Sequence[float]] = None,
    scan_tol: float = 1e-9,
    q_count: int = DEFAULT_Q_COUNT,
) -> AnalysisReport:
    """Run the Euler-Lagrange, convexity, and excess checks on a candidate.

    Without a q_grid the scan uses default_q_grid over the observed slopes
    with q_count grid points. The convexity sweep takes its default samples;
    check_convexity_condition takes any others.

    A violated excess condition under a satisfied hypothesis certifies the
    candidate is NOT a strong local minimum; all other outcomes are
    inconclusive in the positive direction.
    """
    residual = el_residual(problem, x)
    el_max = float(np.max(np.abs(residual.values)))
    _, xs, slopes, _, _ = _rows(problem, x)
    convexity = check_convexity_condition(
        problem, _default_x_samples(xs), _default_r_samples(slopes), DEFAULT_GAMMAS
    )
    violations = weierstrass_scan(
        problem,
        x,
        q_grid if q_grid is not None else default_q_grid(slopes, q_count),
        tol=scan_tol,
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
