"""The basic variational problem on a bounded time scale.

minimize  L[x] = integral from t0 to t1 of f(t, x(sigma(t)), x^Delta(t))
subject to x(t0) = alpha, x(t1) = beta,

over trajectories sampled on the scale. Provides functional evaluation,
admissibility, the Euler-Lagrange residual f_r^Delta - f_x, a damped-Newton
solver for discrete scales (O(n) per iteration: array residual, tridiagonal
Jacobian), spike perturbations, and the constructive searches used to
falsify strong/weak local minimality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calculus import GridFunction, _break_mask, _slopes
from .dual import Dual, Number, tangent_of
from .errors import (
    EmptyInterval,
    InsufficientPoints,
    InvalidParameter,
    InvalidSpikeLocation,
    NonConvergence,
    SingularJacobian,
)
from .expressions import Lagrangian
from .timescale import POINT_TOLERANCE, TimeScale, make_points

# A trajectory is just a grid function; corners are registered as its
# break points.
Trajectory = GridFunction

ADMISSIBILITY_TOLERANCE = 1e-10


@dataclass(frozen=True)
class VariationalProblem:
    """Scale, endpoints, integrand, and boundary values of the basic problem."""

    scale: TimeScale
    t0: float
    t1: float
    lagrangian: Lagrangian
    alpha: float
    beta: float

    def __post_init__(self):
        if self.t1 <= self.t0:
            raise EmptyInterval(f"problem requires t0 < t1, got [{self.t0!r}, {self.t1!r}]")
        i0 = self.scale.index_of(self.t0)
        i1 = self.scale.index_of(self.t1)
        if i0 == i1:
            raise EmptyInterval(
                f"t0={self.t0!r} and t1={self.t1!r} are the same scale point; the window is empty"
            )
        object.__setattr__(self, "t0", float(self.scale.points[i0]))
        object.__setattr__(self, "t1", float(self.scale.points[i1]))
        object.__setattr__(self, "_window", (i0, i1))

    def window(self) -> tuple[int, int]:
        """Inclusive node-index range of [t0, t1]."""
        return self._window

    def linear_trajectory(self) -> Trajectory:
        """Straight line from (t0, alpha) to (t1, beta), extended constantly."""
        t = np.clip(self.scale.points, self.t0, self.t1)
        vals = self.alpha + (self.beta - self.alpha) * (t - self.t0) / (self.t1 - self.t0)
        return GridFunction(self.scale, vals, name="linear")

    def zero_trajectory(self) -> Trajectory:
        return GridFunction.zeros(self.scale, name="zero")


@dataclass(frozen=True)
class Admissibility:
    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def is_admissible(problem: VariationalProblem, x: Trajectory) -> Admissibility:
    """Check the boundary conditions x(t0) = alpha, x(t1) = beta."""
    reasons = []
    left = x.value_at(problem.t0)
    if abs(left - problem.alpha) > ADMISSIBILITY_TOLERANCE:
        reasons.append(f"left boundary: x(t0)={left!r}, expected alpha={problem.alpha!r}")
    right = x.value_at(problem.t1)
    if abs(right - problem.beta) > ADMISSIBILITY_TOLERANCE:
        reasons.append(f"right boundary: x(t1)={right!r}, expected beta={problem.beta!r}")
    return Admissibility(not reasons, tuple(reasons))


# Slope-kind codes of the sample rows; weierstrass maps them onto SlopeKind.
_TWO_SIDED, _LEFT, _RIGHT = 0, 1, 2


def _rows(problem: VariationalProblem, x: Trajectory) -> tuple[np.ndarray, ...]:
    """Samples (t, x, r, kind, weight) of the integrand over [t0, t1], ordered by t.

    A right-going row (t, x(sigma(t)), r+) stands at every node of [t0, t1).
    Its kind is RIGHT at a registered break and TWO_SIDED elsewhere. Its
    weight is mu(t) at a right-scattered node; at a right-dense node it is
    the trapezoid half-panels that no LEFT row closes.

    A LEFT row (t, x(t), r-) with weight h/2 closes the dense panel to the
    left of each left-dense node in (t0, t1] that is a registered break,
    the window end, or right-scattered. It precedes the right-going row at
    the same t.
    """
    ts = problem.scale
    pts, v = ts.points, x.values
    rd, ld = ts.right_dense_mask, ts.left_dense_mask
    i0, i1 = problem.window()
    brk = _break_mask(x)
    gap = np.diff(pts)

    inner = np.arange(i0 + 1, i1 + 1)
    left = inner[ld[inner] & (brk[inner] | (inner == i1) | ~rd[inner])]

    right = np.arange(i0, i1)
    r_right = _slopes(x, right)
    at_break = brk[right]
    r_right[at_break] = _slopes(x, right[at_break], "right")
    w_right = np.where(rd[right], 0.5 * gap[right], ts.mu_values()[right])
    # a dense node inside the window with no LEFT row also closes the panel to its left
    open_left = (right > i0) & ld[right] & rd[right] & ~at_break
    w_right[open_left] += 0.5 * gap[right[open_left] - 1]

    kind_right = np.where(at_break, _RIGHT, _TWO_SIDED).astype(np.int8)
    order = np.argsort(np.concatenate((2 * left, 2 * right + 1)), kind="stable")
    return tuple(
        np.concatenate((left_column, right_column))[order]
        for left_column, right_column in (
            (pts[left], pts[right]),
            (v[left], v[ts.sigma_indices()[right]]),
            (_slopes(x, left, "left"), r_right),
            (np.full(left.size, _LEFT, np.int8), kind_right),
            (0.5 * gap[left - 1], w_right),
        )
    )


def functional(problem: VariationalProblem, x: Trajectory) -> float:
    """L[x], the delta integral of f(t, x^sigma(t), x^Delta(t)) over [t0, t1).

    Scattered points contribute mu(t) * f(...); dense segments contribute
    composite-trapezoid quadrature at their configured resolution, each
    panel closed with its own one-sided slope at registered breaks.
    """
    t, xs, r, _, weight = _rows(problem, x)
    return float(np.dot(weight, problem.lagrangian.eval(t, xs, r)))


def el_residual(problem: VariationalProblem, x: Trajectory) -> GridFunction:
    """Euler-Lagrange residual f_r^Delta(t) - f_x(t, x^sigma(t), x^Delta(t)).

    Evaluated at every point of [t0, t1]^kappa whose successor is also in
    the window, i.e. all window points except the last two on a discrete
    scale. The result is returned as a grid function over those points.
    """
    i0, i1 = problem.window()
    if i1 - i0 + 1 < 3:
        raise InsufficientPoints("el_residual needs at least 3 scale points in [t0, t1]")
    t, xs, r, kind, _ = _rows(problem, x)
    one_per_node = (kind != _LEFT) | (t == problem.t1)
    t, xs, r = t[one_per_node], xs[one_per_node], r[one_per_node]
    res = _el_terms(problem.lagrangian, t, xs, r)
    return GridFunction(make_points(t[:-1]), res, name="el_residual")


def _el_terms(lagr: Lagrangian, t: np.ndarray, xs: Number, r: Number) -> Number:
    """f_r^Delta - f_x between consecutive rows (t, x^sigma, r): the EL residual at t[:-1]."""
    _, fx, fr = lagr.partials(t, xs, r)
    return (fr[1:] - fr[:-1]) / np.diff(t) - fx[:-1]


# -- discrete Euler-Lagrange solver -------------------------------------------


@dataclass(frozen=True)
class SolveResult:
    trajectory: Trajectory
    iterations: int
    residual_max: float
    converged: bool = True
    # (residual max-norm after the step, accepted step length) per Newton iteration
    history: tuple[tuple[float, float], ...] = ()


def _window_residual(lagr: Lagrangian, t: np.ndarray, x: Number) -> Number:
    """EL residual R_k, k < n - 2, of the values x at the n nodes t of a discrete window.

    R_k depends on x_k, x_{k+1} and x_{k+2} only. x may be an array or a Dual
    of arrays; R then carries x's tangents.
    """
    return _el_terms(lagr, t[:-1], x[1:], (x[1:] - x[:-1]) / np.diff(t))


def _window_jacobian(lagr: Lagrangian, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The tridiagonal Jacobian of R with respect to the unknowns x_1 .. x_{n-2}.

    Column k of the (3, n - 2) result holds dR_k/dx_k, dR_k/dx_{k+1} and
    dR_k/dx_{k+2}: the sub-, main and super-diagonal entries of row k. The
    pinned x_0 and x_{n-1} contribute 0.

    Pass c seeds the unknowns j = c (mod 3), so row k meets exactly one seeded
    unknown, at offset (c - k) mod 3; three passes fill all three bands.
    """
    n = x.size
    j, k = np.arange(n), np.arange(n - 2)
    bands = np.zeros((3, n - 2))
    for c in range(3):
        seed = ((j % 3 == c) & (j > 0) & (j < n - 1)).astype(float)
        bands[(c - k) % 3, k] = tangent_of(_window_residual(lagr, t, Dual(x, seed)))
    return bands


def _solve_tridiagonal(bands: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A y = b, A tridiagonal with bands as _window_jacobian returns them.

    Gaussian elimination with partial pivoting, swapping rows in the order
    of LAPACK's gtsv; an exactly zero pivot raises SingularJacobian. Each
    multiplier is formed from the pivot's reciprocal, as LAPACK's dense LU
    (getf2) forms it.
    """
    dl, d, du = bands[0, 1:].tolist(), bands[1].tolist(), bands[2, :-1].tolist()
    du2 = [0.0] * len(d)  # second superdiagonal, filled in by row swaps
    y = b.tolist()
    m = len(d)
    for i in range(m - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise SingularJacobian(f"Jacobian is singular: zero pivot in column {i}")
            fact = _over_pivot(dl[i], d[i])
            d[i + 1] -= fact * du[i]
            y[i + 1] -= fact * y[i]
        else:
            fact = _over_pivot(d[i], dl[i])
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i + 2 < m:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du2[i]
            y[i], y[i + 1] = y[i + 1], y[i] - fact * y[i + 1]
    if d[m - 1] == 0.0:
        raise SingularJacobian(f"Jacobian is singular: zero pivot in column {m - 1}")
    y[m - 1] /= d[m - 1]
    if m > 1:
        y[m - 2] = (y[m - 2] - du[m - 2] * y[m - 1]) / d[m - 2]
    for i in range(m - 3, -1, -1):
        y[i] = (y[i] - du[i] * y[i + 1] - du2[i] * y[i + 2]) / d[i]
    return np.array(y)


_SAFE_MIN = float(np.finfo(float).tiny)


def _over_pivot(a: float, pivot: float) -> float:
    """a / pivot as a times the pivot's reciprocal, unless that reciprocal overflows."""
    return a * (1.0 / pivot) if abs(pivot) >= _SAFE_MIN else a / pivot


def _window_is_discrete(ts: TimeScale, t0: float, t1: float) -> bool:
    return not any(
        lo < t1 - POINT_TOLERANCE and hi > t0 + POINT_TOLERANCE for lo, hi in ts.dense_spans
    )


def solve_el_discrete(
    problem: VariationalProblem,
    x_init: Optional[Trajectory] = None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> SolveResult:
    """Solve the discrete Euler-Lagrange equations by damped Newton iteration.

    Interior values are the unknowns; boundary values stay pinned to alpha
    and beta. The residual is array arithmetic over the window. Residual k
    depends on three consecutive values only, so the exact Jacobian is
    tridiagonal: three passes of dual-number tangents through the same
    residual fill it, and a pivoted tridiagonal elimination solves for the
    step, so an iteration costs O(n). Steps are halved until the residual
    max-norm decreases.

    Raises NonConvergence (carrying the best iterate and diagnostics) or
    SingularJacobian.
    """
    ts = problem.scale
    if not _window_is_discrete(ts, problem.t0, problem.t1):
        raise InvalidParameter("solve_el_discrete handles discrete scales only")
    i0, i1 = problem.window()
    n = i1 - i0 + 1
    if n < 3:
        raise InsufficientPoints("solver needs at least 3 scale points in [t0, t1]")
    lagr = problem.lagrangian
    pts = ts.points[i0 : i1 + 1]
    base = x_init if x_init is not None else problem.linear_trajectory()
    xw = base.values[i0 : i1 + 1].astype(float).copy()
    xw[0], xw[-1] = problem.alpha, problem.beta

    def rebuild(values: np.ndarray) -> Trajectory:
        full = base.values.copy()
        full[i0 : i1 + 1] = values
        return GridFunction(ts, full, name="el_solution")

    residual = _window_residual(lagr, pts, xw)
    res_max = float(np.max(np.abs(residual)))
    best, best_max = xw.copy(), res_max
    history: list[tuple[float, float]] = []
    iterations = 0
    for _ in range(max_iter):
        if res_max <= tol:
            return SolveResult(rebuild(xw), iterations, res_max, history=tuple(history))
        step = _solve_tridiagonal(_window_jacobian(lagr, pts, xw), residual)
        lam = 1.0
        while True:
            trial = xw.copy()
            trial[1:-1] -= lam * step
            trial_res = _window_residual(lagr, pts, trial)
            trial_max = float(np.max(np.abs(trial_res)))
            if trial_max < res_max or trial_max <= tol:
                break
            lam *= 0.5
            if lam < 1e-10:
                raise NonConvergence(
                    "Newton stalled: no step reduces the residual",
                    best=rebuild(best),
                    iterations=iterations,
                    residual_max=best_max,
                    history=tuple(history),
                )
        xw, residual, res_max = trial, trial_res, trial_max
        iterations += 1
        history.append((res_max, lam))
        if res_max < best_max:
            best, best_max = xw.copy(), res_max
    if res_max <= tol:
        return SolveResult(rebuild(xw), iterations, res_max, history=tuple(history))
    raise NonConvergence(
        f"no convergence within {max_iter} iterations (residual {best_max:.3e})",
        best=rebuild(best),
        iterations=iterations,
        residual_max=best_max,
        history=tuple(history),
    )


# -- spike perturbations and minimality falsification --------------------------


def spike_perturbation(
    problem: VariationalProblem, base: Trajectory, t_at: float, d: float
) -> Trajectory:
    """Add d to the trajectory value at sigma(t_at).

    t_at must be a right-scattered interior point with sigma(t_at) != t1;
    the perturbation then leaves both boundary values untouched while its
    delta derivative takes the values d/mu(t_at) at t_at and
    -d/mu(sigma(t_at)) at sigma(t_at) (for a flat base).
    """
    if d == 0:
        raise InvalidParameter("spike height d must be nonzero")
    ts = problem.scale
    i = ts.index_of(t_at)
    t_at = float(ts.points[i])
    if not (problem.t0 + POINT_TOLERANCE < t_at < problem.t1 - POINT_TOLERANCE):
        raise InvalidSpikeLocation(f"t_at={t_at!r} must lie strictly inside (t0, t1)")
    if ts.mu(t_at) == 0.0:
        raise InvalidSpikeLocation(f"t_at={t_at!r} is right-dense; a spike needs mu(t_at) > 0")
    s = ts.sigma(t_at)
    if abs(s - problem.t1) <= POINT_TOLERANCE:
        raise InvalidSpikeLocation("sigma(t_at) coincides with t1; the spike would move the boundary")
    return base.with_value_at(s, base.value_at(s) + d)


@dataclass(frozen=True)
class SpikeWitness:
    """A spike that certifies the zero of the strong-norm ball: small height, negative value."""

    t_at: float
    d: float
    functional_value: float
    slope_ratio: float  # d / mu(sigma(t_at)), chosen > 1


def find_spike_below(
    problem: VariationalProblem,
    delta: float,
    base: Optional[Trajectory] = None,
) -> Optional[SpikeWitness]:
    """Search for a spike with |d| < delta and functional below the base value.

    Candidates are the admissible spike locations ordered by the local
    graininess max(mu(t_at), mu(sigma(t_at))); the first location where that
    graininess drops below delta admits a height d with d/mu(sigma(t_at)) > 1,
    which is returned once the functional decrease is verified numerically.
    """
    if delta <= 0:
        raise InvalidParameter("delta must be positive")
    ts = problem.scale
    base = base if base is not None else problem.zero_trajectory()
    base_value = functional(problem, base)
    i0, i1 = problem.window()
    candidates = []
    for i in range(i0 + 1, i1):
        t = float(ts.points[i])
        mu0 = ts.mu(t)
        if mu0 == 0.0:
            continue
        s = ts.sigma(t)
        if abs(s - problem.t1) <= POINT_TOLERANCE:
            continue
        mu1 = ts.mu(s)
        if mu1 == 0.0:
            continue
        candidates.append((max(mu0, mu1), t, mu1))
    candidates.sort()
    for mu_max, t, mu1 in candidates:
        if mu_max >= delta:
            continue
        d = 0.5 * (mu_max + delta)
        spike = spike_perturbation(problem, base, t, d)
        value = functional(problem, spike)
        if value < base_value:
            return SpikeWitness(t_at=t, d=d, functional_value=value, slope_ratio=d / mu1)
    return None


def random_bounded_slope_trajectory(
    problem: VariationalProblem,
    rng: np.random.Generator,
    slope_bound: float = 1.0,
) -> Trajectory:
    """Random admissible trajectory with |x^Delta| <= slope_bound everywhere.

    Draws slopes uniformly, projects them so the boundary conditions hold
    exactly, then rescales the fluctuation so the bound is respected.
    """
    ts = problem.scale
    i0, i1 = problem.window()
    pts = ts.points[i0 : i1 + 1]
    gaps = np.diff(pts)
    span = problem.t1 - problem.t0
    c = (problem.beta - problem.alpha) / span
    if abs(c) > slope_bound:
        raise InvalidParameter("boundary slope exceeds the requested bound")
    u = rng.uniform(-1.0, 1.0, gaps.size)
    v = u - float(u @ gaps) / span
    m = float(np.max(np.abs(v)))
    room = slope_bound - abs(c)
    s = c + v * (min(1.0, room / m) if m > 0 else 0.0)
    window_vals = problem.alpha + np.concatenate(([0.0], np.cumsum(s * gaps)))
    full = np.empty(len(ts))
    full[:i0] = problem.alpha
    full[i0 : i1 + 1] = window_vals
    full[i1 + 1 :] = window_vals[-1]
    return GridFunction(ts, full, name="random")
