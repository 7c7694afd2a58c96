"""Excess-function analysis: the executable necessary condition for strong minima.

The excess function E(t, x, r, q) = f(t,x,q) - f(t,x,r) - (q-r) f_r(t,x,r)
measures how far f is from supporting its tangent line in the slope
argument. Along a candidate trajectory of a problem whose integrand
satisfies the graininess-weighted convexity hypothesis, a strong local
minimum forces E >= 0 for every slope q; finding E < 0 at a right-dense t
(or on the left limit that closes a dense run) therefore certifies that the
candidate is not a strong local minimum. At a right-scattered t the
hypothesis is plain convexity of f in the slope, under which E >= 0 for
every q, so an E < 0 there refutes the hypothesis instead. The checks here
are sampling-based: "no violation found" is the strongest positive
statement they ever make.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, InvalidParameter, NonDifferentiablePoint
from .expressions import Lagrangian, Number, _varies, check, eval_rows
from .timescale import _is_finite_number, _vector, evenly_spaced
# el_residual is not called here; it stays in this namespace, where
# bench/tracing.py looks for it
from .variational import Trajectory, VariationalProblem, el_residual  # noqa: F401
from .variational import _LEFT, _RIGHT, _TWO_SIDED, _el_residual, _rows


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
    fails or the scan found E < -tol on a right-scattered row that is no
    left limit, necessary-condition-violated when the scan found E < -tol
    only on right-dense rows and left limits, and consistent-with-strong-min
    otherwise. No verdict ever certifies that the candidate IS a strong
    minimum.
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
        (f_at_q,) = lagr._f_plan.run({"t": c["t"], "x": c["x"], "r": c["q"]})
        f_at_r, slope = lagr._excess_plan.run(c)
        with np.errstate(all="ignore"):  # checked here, not by eval_rows' raising flags
            value = f_at_q - f_at_r - (c["q"] - c["r"]) * slope
        check(~np.isfinite(value), DomainError, f"overflow in the excess of '{lagr.source}'")
        return value

    return eval_rows(row, {"t": t, "x": x, "r": r, "q": q})


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
    samples = {"x_samples": x_samples, "r_samples": r_samples, "gamma_samples": gamma_samples}
    xs, rs, gs = (
        _vector(s, f"{name} must be a nonempty 1-d sequence of finite numbers", finite=True)
        for name, s in samples.items()
    )
    if not ((gs >= 0.0) & (gs <= 1.0)).all():
        raise InvalidParameter("gamma_samples must lie in [0, 1]")
    ts = problem.scale
    lagr = problem.lagrangian
    mu = ts.mu_values()
    i0, ik = ts.kappa_range(problem.t0, problem.t1)
    points = ts.points[i0 + np.flatnonzero(mu[i0 : ik + 1])]  # trivially satisfied where mu = 0
    first, second = np.nonzero(rs[:, None] != rs[None, :])
    if not first.size:  # no two distinct slopes: nothing to check, and f is not evaluated
        return ConvexityReport(True, None, 0)
    # one check per (t, x, pair, gamma), in scan order
    x_col = xs[None, :, None, None]
    r1, r2 = rs[first][None, None, :, None], rs[second][None, None, :, None]
    g = gs[None, None, None, :]
    per_point = xs.size * first.size * gs.size
    block = max(1, _BLOCK_ROWS // per_point)

    def midpoint_sides(c: dict) -> tuple:
        """(f at the midpoint, the chord) for each check; f1, f2, mid in the loop's order."""

        def f(r):
            return lagr._f_plan.run({"t": c["t"], "x": c["x"], "r": r})[0]

        g = c["g"]
        f1, f2 = f(c["r1"]), f(c["r2"])
        with np.errstate(all="ignore"):  # the comparison reads these as they come, inf or not
            mid, chord = g * c["r1"] + (1.0 - g) * c["r2"], g * f1 + (1.0 - g) * f2
        return f(mid), chord

    swept = points if _varies(lagr.ast, "t") else points[:1]
    checks = 0
    for start in range(0, swept.size, block):
        t = swept[start : start + block, None, None, None]
        env = {"t": t, "x": x_col, "r1": r1, "r2": r2, "g": g}
        error = None
        try:
            lhs, rhs = eval_rows(midpoint_sides, env)
        except (DomainError, NonDifferentiablePoint) as e:
            if e.before is None:  # f fails on every row: no check comes before the error
                raise
            (lhs, rhs), error = e.before, e
        lhs, rhs = np.ravel(lhs), np.ravel(rhs)
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
    q = _vector(q_grid, "q_grid must be a nonempty 1-d sequence")
    if not np.isfinite(q).all():
        raise InvalidParameter("q_grid must be finite")
    _check_tol(tol, "tol")
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


def _check_tol(tol, name: str) -> None:
    """InvalidParameter naming tol unless a finite number >= 0: a NaN or inf would find no violation."""
    if not (_is_finite_number(tol) and tol >= 0):
        raise InvalidParameter(f"{name} must be nonnegative and finite, got {tol!r}")


def observed_slopes(problem: VariationalProblem, x: Trajectory) -> np.ndarray:
    """All candidate slopes along the trajectory (both sides at breaks)."""
    return _rows(problem, x)[2]


# Comparison slopes in a q grid unless a problem file or flag sets the count.
DEFAULT_Q_COUNT = 41
# Most grid points a q count may ask for; checked before a grid is allocated.
MAX_Q_COUNT = 10**6


def default_q_grid(slopes: Sequence[float], count: int = DEFAULT_Q_COUNT) -> np.ndarray:
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
    s = _vector(slopes, "slopes must be a nonempty 1-d sequence of numbers")
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

    A violation on a right-scattered row that is no left limit refutes the
    hypothesis there: the report's counterexample is then the midpoint check
    between r1 = r and r2 = q that fails (see _tangent_counterexample), and
    convexity_ok is False. A violation on the other rows under a satisfied
    hypothesis certifies the candidate is NOT a strong local minimum; all
    other outcomes are inconclusive in the positive direction.
    """
    _check_tol(scan_tol, "scan_tol")
    el_max = float(np.max(np.abs(_el_residual(problem, x)[1])))
    xs = _rows(problem, x)[1]
    slopes = observed_slopes(problem, x)  # the same memoized column; bench/tracing.py counts rows here
    convexity = check_convexity_condition(
        problem, _default_x_samples(xs), _default_r_samples(slopes), DEFAULT_GAMMAS
    )
    violations = weierstrass_scan(
        problem,
        x,
        q_grid if q_grid is not None else default_q_grid(slopes, q_count),
        tol=scan_tol,
    )
    convex, counterexample = convexity.ok, convexity.counterexample
    # where mu > 0 and the row is no left limit, E < 0 shows f is not convex in the slope
    ts, v = problem.scale, violations
    scattered = (ts.mu_values()[np.searchsorted(ts.points, v.t)] > 0.0) & (v.kind != _LEFT)
    if convex and scattered.any():
        k = int(scattered.argmax())
        convex, counterexample = False, _tangent_counterexample(
            problem.lagrangian, *(float(c[k]) for c in (v.t, v.x_sigma, v.r, v.q))
        )
    if not convex:
        verdict = Verdict.HYPOTHESIS_NOT_MET
    elif violations:
        verdict = Verdict.NECESSARY_CONDITION_VIOLATED
    else:
        verdict = Verdict.CONSISTENT_WITH_STRONG_MIN
    return AnalysisReport(
        el_max_residual=el_max,
        convexity_ok=convex,
        convexity_counterexample=counterexample,
        weierstrass_violations=violations,
        verdict=verdict,
    )


def _tangent_counterexample(
    lagr: Lagrangian, t: float, x: float, r: float, q: float
) -> ConvexityCounterexample:
    """The midpoint check between r1 = r and r2 = q that an excess E(t, x, r, q) < 0 fails.

    With s = 1 - gamma, the midpoint lies above the chord by s*|E| + O(s^2),
    so s is halved from 1/2 until the check fails by more than
    CONVEXITY_TOL; a midpoint where f fails to evaluate is skipped. Should
    no s down to 2^-52 fail (an |E| near the tolerance), the check with the
    largest excess of f over the chord is returned: gamma = 1, where both
    sides are f(r), if no midpoint lies above the chord.
    """
    f1, f2 = lagr.eval(t, x, r), lagr.eval(t, x, q)
    best = ConvexityCounterexample(t, x, r, q, 1.0, f1, f1)
    for k in range(1, 53):
        g = 1.0 - 0.5**k
        try:
            lhs = lagr.eval(t, x, g * r + (1.0 - g) * q)
        except (DomainError, NonDifferentiablePoint):
            continue
        found = ConvexityCounterexample(t, x, r, q, g, lhs, g * f1 + (1.0 - g) * f2)
        if found.lhs > found.rhs + CONVEXITY_TOL:
            return found
        if found.lhs - found.rhs > best.lhs - best.rhs:
            best = found
    return best
