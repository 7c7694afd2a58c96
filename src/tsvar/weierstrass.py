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
import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, InvalidParameter, NonDifferentiablePoint
from .expressions import Lagrangian, eval_ast, eval_rows
from .variational import Trajectory, VariationalProblem, el_residual
from .variational import _LEFT, _RIGHT, _TWO_SIDED, _rows


class SlopeKind(str, Enum):
    TWO_SIDED = "two-sided"
    LEFT = "left"
    RIGHT = "right"


_SLOPE_KINDS = {_TWO_SIDED: SlopeKind.TWO_SIDED, _LEFT: SlopeKind.LEFT, _RIGHT: SlopeKind.RIGHT}
# rank of each slope-kind code by its name, the last key of the violation order
_KIND_NAME_RANK = np.argsort(np.argsort([_SLOPE_KINDS[code].value for code in range(3)]))


class Verdict(str, Enum):
    CONSISTENT_WITH_STRONG_MIN = "consistent-with-strong-min"
    NECESSARY_CONDITION_VIOLATED = "necessary-condition-violated"
    HYPOTHESIS_NOT_MET = "hypothesis-not-met"


class ExcessSample(NamedTuple):
    """One (t, q) sample of the excess scan with E < -tol."""

    t: float
    x_sigma: float
    r: float
    q: float
    E: float
    slope_kind: SlopeKind


class ExcessTable(SequenceABC):
    """The samples of an excess scan with E < -tol, held as columns.

    t, x_sigma, r, q and E are float64 arrays and kind holds the int8
    slope-kind codes of the sample table, one entry per sample. As a
    sequence it yields ExcessSample: an integer index gives one sample, a
    slice gives an ExcessTable, and a table equals any sequence of the same
    samples in the same order. The columns are read-only.
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

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.t, self.x_sigma, self.r, self.q, self.E, self.kind

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ExcessTable(*(c[index] for c in self._columns()))
        i = operator.index(index)
        *values, kind = (c[i] for c in self._columns())  # IndexError past either end
        return ExcessSample(*map(float, values), _SLOPE_KINDS[int(kind)])

    def __iter__(self):
        columns = [c.tolist() for c in self._columns()[:5]]
        return map(ExcessSample, *columns, map(_SLOPE_KINDS.__getitem__, self.kind.tolist()))

    def __eq__(self, other) -> bool:
        if isinstance(other, ExcessTable):
            return all(map(np.array_equal, self._columns(), other._columns()))
        if not isinstance(other, SequenceABC) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))  # as the tuple of its samples, which it equals

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


def excess(lagr: Lagrangian, t: float, x: float, r: float, q: float) -> float:
    """E(t, x, r, q) = f(t,x,q) - f(t,x,r) - (q-r) f_r(t,x,r).

    An E that overflows although f and f_r are finite raises DomainError.
    """
    f_at_q = lagr.eval(t, x, q)
    f_at_r, _, f_r = lagr.partials(t, x, r)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(f_at_q - f_at_r - (q - r) * f_r)
    if not math.isfinite(value):
        raise _excess_overflow(lagr, t, x, r, q)
    return value


def _excess_overflow(lagr: Lagrangian, t: float, x: float, r: float, q: float) -> DomainError:
    where = ", ".join(f"{k}={float(v)!r}" for k, v in zip("txrq", (t, x, r, q)))
    return DomainError(f"overflow in the excess of '{lagr.source}' at {where}")


# Rows of one block of the convexity sweep or of the excess scan: the
# array temporaries stay bounded whatever the window and sample sizes.
_BLOCK_ROWS = 1 << 15


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
    the midpoint inequality is tested over all sampled (x, r1, r2, gamma)
    with r1 != r2. Returns the first counterexample found, in deterministic
    scan order (t, x, r1, r2, gamma), with the number of checks made up to
    it; a domain error is raised only if no counterexample precedes it.
    """
    if not len(x_samples) or not len(r_samples) or not len(gamma_samples):
        raise InvalidParameter("sample lists must be nonempty")
    ts = problem.scale
    lagr = problem.lagrangian
    mu = ts.mu_values()
    i0, ik = ts.kappa_range(problem.t0, problem.t1)
    points = ts.points[i0 + np.flatnonzero(mu[i0 : ik + 1])]  # trivially satisfied where mu = 0
    xs, rs, gs = (np.asarray(s, dtype=float) for s in (x_samples, r_samples, gamma_samples))
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

    checks = 0
    # the first point alone: a Lagrangian that is not convex in r mostly fails there
    edges = sorted({0, *range(1, points.size, block), points.size})
    for start, stop in zip(edges, edges[1:]):
        t = points[start:stop, None, None, None]
        env = {"t": t, "x": x_col, "r1": r1, "r2": r2, "g": g}
        sides, error = eval_rows(midpoint_sides, env)
        if sides is not None:
            lhs, rhs = (np.ravel(side) for side in sides)
            hit = np.flatnonzero(lhs > rhs + tol)
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
    return ConvexityReport(True, None, checks)


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
    dense run. f and f_r are computed once per row and E over rows x q, a
    block of rows at a time; a domain error names the row and q where a
    loop over rows and q, as in excess(), would fail first. An E that
    overflows although f and f_r are finite raises DomainError naming its
    first row and q, unless evaluating f or f_r fails in the same block of
    rows. Violations are sorted by (t, q) so concurrent evaluation would
    merge deterministically.
    """
    if not len(q_grid):
        raise InvalidParameter("q_grid must be nonempty")
    if tol < 0:
        raise InvalidParameter("tol must be nonnegative")
    lagr = problem.lagrangian
    q = np.asarray(q_grid, dtype=float)
    t, xs, r, kind, _ = _rows(problem, x)
    block = max(1, _BLOCK_ROWS // q.size)
    hits = []
    for start in range(0, t.size, block):
        rows = slice(start, start + block)
        tb, xb, rb = t[rows, None], xs[rows, None], r[rows, None]
        try:
            f_q = lagr.eval(tb, xb, q)
            stop, error = tb.shape[0], None
        except (DomainError, NonDifferentiablePoint) as e:
            # excess() evaluates f at q before the partials at r, row by row
            row, col = divmod(e.index, q.size)
            stop, error = row + (col > 0), e
        if stop:
            f, _, f_r = lagr.partials(tb[:stop], xb[:stop], rb[:stop])
        if error is not None:
            raise error
        with np.errstate(over="ignore", invalid="ignore"):
            E = f_q - f - (q - rb) * f_r
        overflow = ~np.isfinite(E)
        if overflow.any():
            row, col = divmod(int(np.argmax(overflow)), q.size)
            raise _excess_overflow(lagr, tb[row, 0], xb[row, 0], rb[row, 0], q[col])
        i, j = np.nonzero(E < -tol)
        hits.append((i + start, j, E[i, j]))
    i, j, e = (np.concatenate(column) for column in zip(*hits))
    # the stable (t, q, slope-kind name) order, ties kept in row and q order
    order = np.lexsort((_KIND_NAME_RANK[kind[i]], q[j], t[i]))
    a, b = i[order], j[order]
    return ExcessTable(t[a], xs[a], r[a], q[b], e[order], kind[a])


def observed_slopes(problem: VariationalProblem, x: Trajectory) -> np.ndarray:
    """All candidate slopes along the trajectory (both sides at breaks)."""
    return _rows(problem, x)[2]


# Comparison slopes in a q grid unless a problem file or flag sets the count.
DEFAULT_Q_COUNT = 41
# Most grid points a q count may ask for; checked before a grid is allocated.
MAX_Q_COUNT = 10**6


def default_q_grid(
    slopes: Iterable[float], count: int = DEFAULT_Q_COUNT, width: float = 5.0
) -> np.ndarray:
    """Comparison-slope grid spanning the observed slopes plus width*spread.

    The necessary condition quantifies over every real q, which is not
    machine checkable; the default covers a generous neighbourhood of the
    trajectory's own slopes and always includes those slopes exactly.
    """
    if count > MAX_Q_COUNT:
        raise InvalidParameter(f"q count {count} exceeds the limit of {MAX_Q_COUNT:,}")
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
    q_count: int = DEFAULT_Q_COUNT,
) -> AnalysisReport:
    """Run the Euler-Lagrange, convexity, and excess checks on a candidate.

    Without a q_grid the scan uses default_q_grid over the observed slopes
    with q_count grid points.

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
