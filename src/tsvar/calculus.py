"""Delta derivative, delta integral, and the strong/weak norms.

Grid functions carry one value per representative point of a time scale.
At right-scattered points the delta derivative is the exact forward
quotient (x(sigma(t)) - x(t)) / mu(t); at right-dense points it is a
difference approximation over the neighbouring quadrature nodes (symmetric
where both neighbours are dense, second-order one-sided at segment
boundaries). The delta integral is the mu-weighted sum over scattered
points plus composite trapezoid quadrature over dense segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import AtScaleMaximum, InvalidParameter, ReversedBounds
from .timescale import POINT_TOLERANCE, TimeScale


class DerivativeKind(str, Enum):
    EXACT_SCATTERED = "exact-scattered"
    DENSE_APPROX = "dense-approx"
    LEFT_LIMIT = "left-limit"
    RIGHT_LIMIT = "right-limit"
    UNDEFINED_AT_BREAK = "undefined-at-break"


@dataclass(frozen=True)
class DerivativeValue:
    """A delta-derivative sample together with how it was obtained."""

    value: float
    kind: DerivativeKind

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class GridFunction:
    """A real-valued function sampled on the representative points of a scale.

    break_points lists the finitely many points where the delta derivative
    of the underlying function does not exist (corners of a piecewise
    trajectory). The weak norm skips them where the derivative does not
    exist; integration and excess scans take one-sided values there.
    """

    scale: TimeScale
    values: np.ndarray
    name: Optional[str] = None
    break_points: tuple[float, ...] = ()

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (len(self.scale),):
            raise InvalidParameter(
                f"expected {len(self.scale)} values (one per scale point), got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidParameter("grid values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        canon = tuple(
            float(self.scale.points[self.scale.index_of(b)]) for b in self.break_points
        )
        object.__setattr__(self, "break_points", canon)

    @classmethod
    def from_callable(
        cls,
        scale: TimeScale,
        fn: Callable[[float], float],
        name: Optional[str] = None,
        break_points: tuple[float, ...] = (),
    ) -> "GridFunction":
        return cls(scale, np.array([fn(float(t)) for t in scale.points]), name, break_points)

    @classmethod
    def zeros(cls, scale: TimeScale, name: Optional[str] = None) -> "GridFunction":
        return cls(scale, np.zeros(len(scale)), name)

    def value_at(self, t: float) -> float:
        return float(self.values[self.scale.index_of(t)])

    __call__ = value_at

    def value_at_sigma(self, t: float) -> float:
        """x(sigma(t)), the composition with the forward jump."""
        return float(self.values[self.scale.index_of(self.scale.sigma(t))])

    def with_value_at(self, t: float, value: float) -> "GridFunction":
        i = self.scale.index_of(t)
        vals = self.values.copy()
        vals[i] = value
        return GridFunction(self.scale, vals, self.name, self.break_points)

    def with_break_points(self, break_points: tuple[float, ...]) -> "GridFunction":
        return GridFunction(self.scale, self.values.copy(), self.name, break_points)

    def is_break(self, t: float) -> bool:
        return any(abs(t - b) <= POINT_TOLERANCE for b in self.break_points)


def _break_mask(x: GridFunction) -> np.ndarray:
    """True at the nodes registered as break points of x."""
    mask = np.zeros(len(x.scale), dtype=bool)
    mask[[x.scale.index_of(b) for b in x.break_points]] = True
    return mask


def _one_sided(x: GridFunction, idx, step):
    """Difference quotients from the nodes idx towards idx + step.

    step is +1 or -1, for all nodes or per node. The quotient is second
    order when the node and its neighbour are dense on that side and the
    next two gaps are uniform; first order otherwise, which is the exact
    quotient across a scattered gap. A dense neighbour is never an end of
    the scale, so the second node out exists whenever it is used.
    """
    ts = x.scale
    pts, v = ts.points, x.values
    rd, ld = ts.right_dense_mask, ts.left_dense_mask
    last = pts.size - 1
    j1 = np.minimum(np.maximum(idx + step, 0), last)
    j2 = np.minimum(np.maximum(idx + 2 * step, 0), last)
    h = pts[j1] - pts[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        first = (v[j1] - v[idx]) / h
        second = (-3.0 * v[idx] + 4.0 * v[j1] - v[j2]) / (2.0 * h)
    dense = np.where(step > 0, rd[idx] & rd[j1], ld[idx] & ld[j1])
    uniform = np.abs(pts[j2] - pts[j1] - h) <= 1e-9 * np.abs(h)
    return np.where(dense & uniform, second, first)


def _slopes(x: GridFunction, idx, side: Optional[str] = None):
    """x^Delta at the node index or index array idx.

    side "right" / "left" gives the one-sided quotients; the nodes must
    have a neighbour on that side. side None gives the exact forward
    quotient at right-scattered nodes, the symmetric stencil where both
    neighbours are dense, a one-sided stencil at the ends of a dense run,
    and NaN at registered breaks that are not right-scattered, where the
    derivative does not exist.
    """
    if side is not None:
        return _one_sided(x, idx, +1 if side == "right" else -1)
    ts = x.scale
    pts, v = ts.points, x.values
    last = pts.size - 1
    lo, hi = np.maximum(idx - 1, 0), np.minimum(idx + 1, last)
    with np.errstate(divide="ignore", invalid="ignore"):
        central = (v[hi] - v[lo]) / (pts[hi] - pts[lo])
    one_sided = _one_sided(x, idx, np.where(idx == last, -1, 1))
    out = np.where(ts.right_dense_mask[idx] & ts.left_dense_mask[idx], central, one_sided)
    if x.break_points:
        out = np.where(_break_mask(x)[idx] & (ts.mu_values()[idx] == 0.0), np.nan, out)
    return out


def delta_derivative(x: GridFunction, t: float, side: Optional[str] = None) -> DerivativeValue:
    """Delta derivative of a grid function at a representative point.

    side may be "left" or "right" to request a one-sided value at a break
    point of a piecewise function; with side=None a registered break at a
    right-dense point yields kind undefined-at-break (value NaN).

    Raises AtScaleMaximum when t is a left-scattered maximum (t outside
    T^kappa, where the delta derivative is not defined).
    """
    ts = x.scale
    i = ts.index_of(t)
    last = len(ts) - 1
    if i == last and not ts.left_dense_mask[i]:
        raise AtScaleMaximum(
            f"t={t!r} is the left-scattered maximum; the delta derivative needs t in T^kappa"
        )
    if side == "right" and i == last:
        raise InvalidParameter("no right neighbour at the scale maximum")
    if side == "left" and i == 0:
        raise InvalidParameter("no left neighbour at the scale minimum")
    if side not in (None, "left", "right"):
        raise InvalidParameter(f"side must be None, 'left' or 'right', got {side!r}")
    value = float(_slopes(x, i, side))
    if side is not None:
        kind = DerivativeKind.RIGHT_LIMIT if side == "right" else DerivativeKind.LEFT_LIMIT
    elif ts.mu_values()[i] > 0.0:
        kind = DerivativeKind.EXACT_SCATTERED
    elif x.is_break(t):
        kind = DerivativeKind.UNDEFINED_AT_BREAK
    else:
        kind = DerivativeKind.DENSE_APPROX
    return DerivativeValue(value, kind)


def delta_integral(g: GridFunction, c: float, d: float) -> float:
    """Delta integral of g from c to d (both representative points, c <= d).

    Reversed bounds raise ReversedBounds rather than flipping the sign.
    """
    ts = g.scale
    ic, id_ = ts.index_of(c), ts.index_of(d)
    if id_ < ic:
        raise ReversedBounds(f"integration bounds reversed: c={c!r} > d={d!r}")
    if ic == id_:
        return 0.0
    pts, v = ts.points, g.values
    gaps = np.diff(pts[ic : id_ + 1])
    rd = ts.right_dense_mask[ic:id_]
    left_vals = v[ic:id_]
    right_vals = v[ic + 1 : id_ + 1]
    pieces = np.where(rd, 0.5 * gaps * (left_vals + right_vals), gaps * left_vals)
    return float(pieces.sum())


def norm_strong(x: GridFunction, t0: float, t1: float) -> float:
    """Strong norm: sup of |x(sigma(t))| over [t0, t1]^kappa."""
    ts = x.scale
    i0, ik = ts.kappa_range(t0, t1)
    return float(np.max(np.abs(x.values[ts.sigma_indices()[i0 : ik + 1]])))


def norm_weak(x: GridFunction, t0: float, t1: float) -> float:
    """Weak norm: norm_strong plus sup of |x^Delta| over [t0, t1]^kappa.

    Points where the derivative does not exist (registered breaks at
    right-dense points) are excluded from the second supremum.
    """
    i0, ik = x.scale.kappa_range(t0, t1)
    slopes = np.abs(_slopes(x, np.arange(i0, ik + 1)))
    return norm_strong(x, t0, t1) + float(np.max(slopes, initial=0.0, where=~np.isnan(slopes)))
