"""The basic variational problem on a bounded time scale.

minimize  L[x] = integral from t0 to t1 of f(t, x(sigma(t)), x^Delta(t))
subject to x(t0) = alpha, x(t1) = beta,

over trajectories sampled on the scale. Provides functional evaluation,
admissibility, the Euler-Lagrange residual f_r^Delta - f_x, a Newton solver
for discrete scales that seeks local minimizers of L (O(n) per iteration:
the Hessian of L is tridiagonal), spike perturbations, and the constructive
searches used to falsify strong/weak local minimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calculus import GridFunction, _break_mask
from .errors import (
    DomainError,
    EmptyInterval,
    InsufficientPoints,
    InvalidParameter,
    InvalidSpikeLocation,
    NonConvergence,
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
        with np.errstate(over="ignore", invalid="ignore"):
            vals = self.alpha + (self.beta - self.alpha) * (t - self.t0) / (self.t1 - self.t0)
        if not np.isfinite(vals).all():  # beta - alpha near the float range: weigh the ends
            s = (t - self.t0) / (self.t1 - self.t0)
            vals = self.alpha * (1.0 - s) + self.beta * s
        return GridFunction(self.scale, vals)

    def zero_trajectory(self) -> Trajectory:
        return GridFunction.zeros(self.scale)


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

    The table is built once per trajectory, problem scale object and window,
    and kept in x.sample_rows: the functional, the EL residual and the
    excess scan of one analysis share it. Its arrays are read-only. A
    trajectory on a scale whose points or dense masks differ from the
    problem's raises InvalidParameter.
    """
    key = (problem.scale, *problem.window())
    rows = x.sample_rows.get(key)
    if rows is None:
        rows = x.sample_rows[key] = _build_rows(problem, x)
    return rows


def _build_rows(problem: VariationalProblem, x: Trajectory) -> tuple[np.ndarray, ...]:
    """The table of _rows, built from the slope table of x."""
    ts = problem.scale
    if x.scale is not ts and not all(map(np.array_equal, _nodes(x.scale), _nodes(ts))):
        raise InvalidParameter("the trajectory is sampled on another scale than the problem's")
    pts, v, mu = ts.points, x.values, ts.mu_values()
    rd, ld = ts.right_dense_mask, ts.left_dense_mask
    slopes = x.slope_table
    i0, i1 = problem.window()
    brk = _break_mask(x)
    here, ahead = slice(i0, i1), slice(i0 + 1, i1 + 1)
    gap = np.diff(pts[i0 : i1 + 1])

    at_break = brk[here]
    t = pts[here]
    xs = np.where(mu[here] > 0.0, v[ahead], v[here])  # x(sigma(t))
    r = np.where(at_break, slopes.right[here], slopes.two_sided[here])
    kind = np.where(at_break, _RIGHT, _TWO_SIDED).astype(np.int8)
    weight = np.where(rd[here], 0.5 * gap, mu[here])
    # a dense node inside the window with no LEFT row also closes the panel to its left
    open_left = ld[i0 + 1 : i1] & rd[i0 + 1 : i1] & ~at_break[1:]
    weight[1:][open_left] += 0.5 * gap[:-1][open_left]

    # LEFT rows go in before the right-going row of their node: at offset node - i0
    closes = ld[ahead] & (brk[ahead] | ~rd[ahead])
    closes[-1] = ld[i1]
    at = np.flatnonzero(closes) + 1
    left = i0 + at
    rows = (
        np.insert(t, at, pts[left]),
        np.insert(xs, at, v[left]),
        np.insert(r, at, slopes.left[left]),
        np.insert(kind, at, _LEFT),
        np.insert(weight, at, 0.5 * gap[at - 1]),
    )
    for column in rows:
        column.setflags(write=False)
    return rows


def _nodes(ts: TimeScale) -> tuple[np.ndarray, ...]:
    """The arrays that fix a scale's sample rows: its points and dense masks."""
    return ts.points, ts.right_dense_mask, ts.left_dense_mask


def functional(problem: VariationalProblem, x: Trajectory) -> float:
    """L[x], the delta integral of f(t, x^sigma(t), x^Delta(t)) over [t0, t1).

    Scattered points contribute mu(t) * f(...); dense segments contribute
    composite-trapezoid quadrature at their configured resolution, each
    panel closed with its own one-sided slope at registered breaks. A sum
    that overflows although every term is finite raises DomainError.
    """
    lagr = problem.lagrangian
    t, xs, r, _, weight = _rows(problem, x)
    terms = lagr.eval(t, xs, r)  # finite, or eval raised
    # np.sum, not a BLAS dot, whose result depends on the thread count
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan
        value = float(np.sum(weight * terms))
    if not math.isfinite(value):
        raise DomainError(f"overflow in the functional of '{lagr.source}'")
    return value


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
    _, fx, fr = problem.lagrangian.partials(t, xs, r)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _el_terms(t, fx, fr)
    if not np.isfinite(residual).all():
        raise DomainError(f"overflow in the Euler-Lagrange residual of '{problem.lagrangian.source}'")
    return GridFunction(make_points(t[:-1]), residual)


def _el_terms(t: np.ndarray, fx: np.ndarray, fr: np.ndarray) -> np.ndarray:
    """f_r^Delta - f_x between consecutive rows at the times t: the EL residual at t[:-1]."""
    return (fr[1:] - fr[:-1]) / np.diff(t) - fx[:-1]


# -- discrete Euler-Lagrange solver -------------------------------------------


@dataclass(frozen=True)
class SolveResult:
    trajectory: Trajectory
    iterations: int
    residual_max: float
    # the pivot signs of L's Hessian at the solution: "strict-minimum",
    # "not-minimum" (a saddle or a maximum) or "degenerate"
    second_order: str
    converged: bool = True
    # (residual max-norm, accepted step length, L) after each Newton iteration
    history: tuple[tuple[float, float, float], ...] = ()


def _window_state(lagr: Lagrangian, t: np.ndarray, x: np.ndarray) -> tuple:
    """(L, sum of mu |f|, EL residual R, Hessian diagonal, Hessian off-diagonal) at x.

    t holds the n nodes of a discrete window and x the values there. Row k,
    k < n - 1, is (t_k, x_{k+1}, (x_{k+1} - x_k)/mu_k), and L is the sum of
    mu_k f over the rows. R_k, k < n - 2, is the EL residual, and
    dL/dx_{k+1} = -mu_k R_k. Term k adds a 2x2 block in x_k and x_{k+1} to
    the Hessian of L in the unknowns x_1 .. x_{n-2}. With a = f_rr/mu,
    b = f_xr and c = mu f_xx per row, its diagonal entry j is
    (c + 2b + a)_{j-1} + a_j and its entry (j, j+1) is -(a + b)_j.
    """
    mu = np.diff(t)
    f, fx, fr, fxx, fxr, frr = lagr.second_partials(t[:-1], x[1:], np.diff(x) / mu)
    a = frr / mu
    diag = (mu * fxx + 2.0 * fxr + a)[:-1] + a[1:]
    off = -(a + fxr)[1:-1]
    return float(np.dot(mu, f)), float(np.dot(mu, np.abs(f))), _el_terms(t[:-1], fx, fr), diag, off


def _merit(lagr: Lagrangian, t: np.ndarray, x: np.ndarray) -> float:
    """L at the window values x; infinite where f is not defined."""
    mu = np.diff(t)
    try:
        f = lagr.eval(t[:-1], x[1:], np.diff(x) / mu)
    except DomainError:
        return math.inf
    return float(np.dot(mu, f))


def _ldl(diag: list, off: list, shift: float = 0.0) -> tuple[list, list]:
    """Pivots d and multipliers l of the LDL^T factorization of H + shift*I, without pivoting.

    H is symmetric tridiagonal with diagonal diag and off-diagonal off. The
    factorization stops at the first zero pivot, which is then d[-1].
    """
    pivot = diag[0] + shift
    d, l = [pivot], []
    for a, b in zip(diag[1:], off):
        if pivot == 0.0:
            break
        m = b / pivot
        pivot = a + shift - m * b
        l.append(m)
        d.append(pivot)
    return d, l


def _newton_step(diag: np.ndarray, off: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """s with (H + lam*I) s = -grad, lam = 0 when every pivot of H is positive.

    Otherwise, where a pivot is negative or zero, lam starts at
    1e-3 * max|diag| (1e-3 for a zero diagonal) and doubles until every
    pivot is positive, so s descends.
    """
    diag, off = diag.tolist(), off.tolist()
    d, l = _ldl(diag, off)
    shift = 1e-3 * (max(map(abs, diag)) or 1.0)
    while min(d) <= 0.0:
        d, l = _ldl(diag, off, shift)
        shift *= 2.0
    z, y = [], 0.0  # L D z = -grad, forward
    for g, m, pivot in zip(grad.tolist(), [0.0] + l, d):
        y = -g - m * y
        z.append(y / pivot)
    s, step = [], 0.0  # L^T s = z, backward
    for zj, m in zip(reversed(z), reversed(l + [0.0])):
        step = zj - m * step
        s.append(step)
    return np.array(s[::-1])


def _second_order(diag: np.ndarray, off: np.ndarray) -> str:
    """Whether the unshifted pivots of H are all positive, one negative, or one zero."""
    d, _ = _ldl(diag.tolist(), off.tolist())
    if min(d) < 0.0:
        return "not-minimum"
    return "degenerate" if d[-1] == 0.0 else "strict-minimum"


# Armijo's sufficient-decrease constant, and the rounding error of L's sum
# relative to the sum of mu |f|: a step whose decrease L cannot resolve is
# taken, so the residual can fall below what L itself can show.
_ARMIJO = 1e-4
_MERIT_ROUNDING = 1e-12
# The residual max-norm at which the solver stops.
SOLVE_TOL = 1e-10


# an iterate whose L or residual overflows is rejected or ends in NonConvergence
@np.errstate(over="ignore", invalid="ignore")
def solve_el_discrete(
    problem: VariationalProblem,
    x_init: Optional[Trajectory] = None,
    max_iter: int = 100,
) -> SolveResult:
    """Solve the discrete Euler-Lagrange equations by Newton's method on L.

    Interior values are the unknowns; boundary values stay pinned to alpha
    and beta. On a discrete window the EL residual is the gradient of L up
    to the factors -mu, so a solution is a stationary point of L. Each
    iteration solves H s = -grad L, H the tridiagonal Hessian of L from
    the symbolic second partials, by LDL^T without pivoting. Where H has
    a negative or zero pivot, it is shifted to H + lam*I, so s descends.
    The step length is halved until Armijo's condition on L holds. An
    iteration costs O(n). The iteration stops when the residual max-norm
    is at most SOLVE_TOL, and the result's second_order reports the pivot
    signs of the unshifted H there.

    Raises NonConvergence, carrying the best iterate and diagnostics.
    """
    ts = problem.scale
    i0, i1 = problem.window()
    if ts.right_dense_mask[i0:i1].any():  # a dense span overlaps [t0, t1]
        raise InvalidParameter("solve_el_discrete handles discrete scales only")
    n = i1 - i0 + 1
    if n < 3:
        raise InsufficientPoints("solver needs at least 3 scale points in [t0, t1]")
    lagr = problem.lagrangian
    pts = ts.points[i0 : i1 + 1]
    mu = np.diff(pts)
    base = x_init if x_init is not None else problem.linear_trajectory()
    xw = base.values[i0 : i1 + 1].astype(float).copy()
    xw[0], xw[-1] = problem.alpha, problem.beta

    def rebuild(values: np.ndarray) -> Trajectory:
        full = base.values.copy()
        full[i0 : i1 + 1] = values
        return GridFunction(ts, full)

    def failure(message: str) -> NonConvergence:
        return NonConvergence(
            message, rebuild(best), iterations, residual_max=best_max, history=tuple(history)
        )

    merit, size, residual, diag, off = _window_state(lagr, pts, xw)
    res_max = float(np.max(np.abs(residual)))
    best, best_max = xw.copy(), res_max
    history: list[tuple[float, float, float]] = []
    iterations = 0
    while res_max > SOLVE_TOL and iterations < max_iter:
        grad = -mu[:-1] * residual
        step = _newton_step(diag, off, grad)
        decrease = _ARMIJO * float(np.dot(grad, step))
        lam = 1.0
        while True:
            trial = xw.copy()
            trial[1:-1] += lam * step
            if _merit(lagr, pts, trial) <= merit + lam * decrease + _MERIT_ROUNDING * size:
                break
            lam *= 0.5
            if lam < 1e-10:
                raise failure("Newton stalled: no step decreases L")
        xw = trial
        merit, size, residual, diag, off = _window_state(lagr, pts, xw)
        res_max = float(np.max(np.abs(residual)))
        iterations += 1
        history.append((res_max, lam, merit))
        if res_max < best_max:
            best, best_max = xw.copy(), res_max
    if res_max <= SOLVE_TOL:
        return SolveResult(
            rebuild(xw), iterations, res_max, _second_order(diag, off), history=tuple(history)
        )
    raise failure(f"no convergence within {max_iter} iterations (residual {best_max:.3e})")


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


def find_spike_below(problem: VariationalProblem, delta: float) -> Optional[SpikeWitness]:
    """Search for a spike on the zero trajectory with |d| < delta and a functional below its value.

    Candidates are the admissible spike locations ordered by the local
    graininess max(mu(t_at), mu(sigma(t_at))); the first location where that
    graininess drops below delta admits a height d with d/mu(sigma(t_at)) > 1,
    which is returned once the functional decrease is verified numerically.
    """
    if not delta > 0:  # NaN too, which would find no spike
        raise InvalidParameter("delta must be positive")
    ts = problem.scale
    base = problem.zero_trajectory()
    base_value = functional(problem, base)
    i0, i1 = problem.window()
    mu = ts.mu_values()
    # right-scattered interior nodes i whose sigma, node i + 1, is right-scattered and not t1
    i = np.arange(i0 + 1, i1 - 1)
    i = i[(mu[i] > 0.0) & (mu[i + 1] > 0.0)]
    peak = np.maximum(mu[i], mu[i + 1])
    order = np.argsort(peak, kind="stable")  # ties in t order
    order = order[peak[order] < delta]
    t_at, peaks, mu_next = ts.points[i[order]], peak[order], mu[i[order] + 1]
    for t, mu_max, mu1 in zip(t_at.tolist(), peaks.tolist(), mu_next.tolist()):
        d = 0.5 * (mu_max + delta)
        value = functional(problem, spike_perturbation(problem, base, t, d))
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
    if not abs(c) <= slope_bound:  # a NaN bound too, which would bound nothing
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
    return GridFunction(ts, full)
