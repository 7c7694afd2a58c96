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

from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import AtScaleMaximum, InvalidParameter, ReversedBounds
from .timescale import _BY_VALUE, TimeScale, _Frozen, _is_finite_number, _vector


class DerivativeKind(str, Enum):
    EXACT_SCATTERED = "exact-scattered"
    DENSE_APPROX = "dense-approx"
    LEFT_LIMIT = "left-limit"
    RIGHT_LIMIT = "right-limit"
    UNDEFINED_AT_BREAK = "undefined-at-break"


class DerivativeValue(NamedTuple):
    """A delta-derivative sample together with how it was obtained."""

    value: float
    kind: DerivativeKind
    __eq__, __ne__, __hash__ = _BY_VALUE

    def __float__(self) -> float:
        return self.value


def _grid_scale(scale) -> TimeScale:
    """scale, which must be a TimeScale: InvalidParameter naming the type otherwise."""
    if not isinstance(scale, TimeScale):
        raise InvalidParameter(f"a grid function needs a TimeScale, not {type(scale).__name__}")
    return scale


class GridFunction(_Frozen):
    """A real-valued function sampled on the representative points of a scale.

    break_points lists the finitely many points where the delta derivative
    of the underlying function does not exist (corners of a piecewise
    trajectory). The weak norm skips them where the derivative does not
    exist; integration and excess scans take one-sided values there.

    values are read as the scales read theirs: real numbers, not text,
    complex numbers or other objects. The grid keeps its own read-only
    copy. Two grid functions are equal only when they are the same object.
    """

    _fields = ("scale", "values", "break_points")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, scale: TimeScale, values: np.ndarray, break_points: tuple[float, ...] = ()):
        ts = _grid_scale(scale)
        vals = _vector(values, "grid values must be a sequence of numbers")
        if vals.shape != (len(ts),):
            raise InvalidParameter(f"expected {len(ts)} values (one per scale point), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise InvalidParameter("grid values must all be finite")
        vals = vals.copy()  # _vector may give back the caller's array
        vals.setflags(write=False)
        try:
            breaks = tuple(break_points)
        except TypeError:
            raise InvalidParameter("break_points must be a sequence of scale points") from None
        canon = tuple(float(ts.points[ts.index_of(b)]) for b in breaks)
        object.__setattr__(self, "scale", ts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "break_points", canon)

    @classmethod
    def from_callable(
        cls,
        scale: TimeScale,
        fn: Callable[[float], float],
        break_points: tuple[float, ...] = (),
    ) -> "GridFunction":
        points = _grid_scale(scale).points
        if not callable(fn):
            raise InvalidParameter(f"fn must be callable, not {type(fn).__name__}")
        return cls(scale, [fn(float(t)) for t in points], break_points)

    @classmethod
    def zeros(cls, scale: TimeScale) -> "GridFunction":
        return cls(scale, np.zeros(len(_grid_scale(scale))))

    def value_at(self, t: float) -> float:
        return float(self.values[self.scale.index_of(t)])

    __call__ = value_at

    def with_value_at(self, t: float, value: float) -> "GridFunction":
        if not _is_finite_number(value):
            raise InvalidParameter(f"value must be a finite number, got {value!r}")
        i = self.scale.index_of(t)
        vals = self.values.copy()
        vals[i] = value
        return GridFunction(self.scale, vals, self.break_points)

    @cached_property
    def break_mask(self) -> np.ndarray:
        """True at the nodes registered as break points, read-only, built on first use."""
        mask = np.zeros(len(self.scale), dtype=bool)
        mask[[self.scale.index_of(b) for b in self.break_points]] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def slopes(self) -> np.ndarray:
        """x^Delta at every node by the rule of side None, read-only, built on first use.

        The exact forward quotient at right-scattered nodes, the symmetric
        quotient where both neighbours are dense (both from slices), and
        one_sided only where neither applies: to the right at the start of
        a dense run and to the left at the scale maximum, which is never
        right-dense. NaN at registered breaks that are not right-scattered,
        where the derivative does not exist.
        """
        ts = self.scale
        p, v = ts.points, self.values
        rd, ld = ts.right_dense_mask, ts.left_dense_mask
        out, rise = np.empty(p.size), np.empty(p.size - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            # the symmetric quotients, then the forward ones at right-scattered nodes, where
            # the gap is mu; the rest of the right-dense nodes take one_sided below
            np.subtract(p[2:], p[:-2], out=out[1:-1])
            np.divide(np.subtract(v[2:], v[:-2], out=rise[:-1]), out[1:-1], out=out[1:-1])
            mu = ts.mu_values()[:-1]
            np.divide(np.subtract(v[1:], v[:-1], out=rise), mu, out=out[:-1], where=mu > 0.0)
        starts = np.flatnonzero(rd & ~ld)
        if starts.size:
            out[starts] = self.one_sided(starts, 1)
        out[-1:] = self.one_sided(np.array([p.size - 1]), -1)
        if self.break_points:
            out[self.break_mask & (ts.mu_values() == 0.0)] = np.nan
        out.setflags(write=False)
        return out

    def one_sided(self, nodes: np.ndarray, step: int) -> np.ndarray:
        """x^Delta at the integer array nodes by the one-sided rule towards node i + step.

        step is 1 for the right neighbour and -1 for the left. The quotient
        is second order when the node and the neighbour are dense on that
        side and the next two gaps are uniform; first order otherwise, which
        is the exact quotient across a scattered gap. Past an end of the
        scale the end node stands in for the missing neighbours, so a node
        without the neighbour gets a meaningless value. A dense neighbour
        is never an end of the scale, so the second node out exists
        whenever it is used.
        """
        ts = self.scale
        p, v = ts.points, self.values
        dense = ts.right_dense_mask if step > 0 else ts.left_dense_mask
        # nodes are indexes of the scale: only the end that step moves towards can be passed
        bound, end = (np.minimum, p.size - 1) if step > 0 else (np.maximum, 0)
        j1, j2 = bound(nodes + step, end), bound(nodes + 2 * step, end)
        v0, v1, v2 = v[nodes], v[j1], v[j2]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h = p[j1] - p[nodes]
            out = (v1 - v0) / h
            use = dense[nodes] & dense[j1] & (np.abs(p[j2] - p[j1] - h) <= 1e-9 * np.abs(h))
            if use.any():
                h, v0, v1, v2 = h[use], v0[use], v1[use], v2[use]
                second = (-3.0 * v0 + 4.0 * v1 - v2) / (2.0 * h)
                overflow = ~np.isfinite(second)
                if overflow.any():  # |x| above about 4.5e307: the same stencil in differences
                    second[overflow] = ((3.0 * (v1 - v0) - (v2 - v1)) / (2.0 * h))[overflow]
                out[use] = second
        return out

    @cached_property
    def sample_rows(self) -> dict:
        """The integrand sample tables of variational._rows, by (problem scale, i0, i1).

        Empty until a problem first samples this trajectory; each table is a
        pure function of x, the scale and the window, so it is built once.
        """
        return {}


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
    # an array side would make each comparison below an array, whose truth numpy refuses
    if side is not None and not (isinstance(side, str) and side in ("left", "right")):
        raise InvalidParameter(f"side must be None, 'left' or 'right', got {side!r}")
    if side == "right" and i == last:
        raise InvalidParameter("no right neighbour at the scale maximum")
    if side == "left" and i == 0:
        raise InvalidParameter("no left neighbour at the scale minimum")
    if side is not None:
        step = 1 if side == "right" else -1
        kind = DerivativeKind.RIGHT_LIMIT if step > 0 else DerivativeKind.LEFT_LIMIT
        return DerivativeValue(float(x.one_sided(np.array([i]), step)[0]), kind)
    if ts.mu_values()[i] > 0.0:
        kind = DerivativeKind.EXACT_SCATTERED
    elif x.break_mask[i]:
        kind = DerivativeKind.UNDEFINED_AT_BREAK
    else:
        kind = DerivativeKind.DENSE_APPROX
    return DerivativeValue(float(x.slopes[i]), kind)


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


def _kappa_range(x: GridFunction, t0: float, t1: float) -> tuple[int, int]:
    """x's scale's kappa_range(t0, t1); InvalidParameter unless x is a GridFunction."""
    if not isinstance(x, GridFunction):
        raise InvalidParameter(f"x must be a GridFunction, not {type(x).__name__}")
    return x.scale.kappa_range(t0, t1)


def norm_strong(x: GridFunction, t0: float, t1: float) -> float:
    """Strong norm: sup of |x(sigma(t))| over [t0, t1]^kappa."""
    i0, ik = _kappa_range(x, t0, t1)
    size = x.scale.at_sigma(x.values, i0, ik + 1)
    return float(np.max(np.abs(size, out=size)))


def norm_weak(x: GridFunction, t0: float, t1: float) -> float:
    """Weak norm: norm_strong plus sup of |x^Delta| over [t0, t1]^kappa.

    Points where the derivative does not exist (registered breaks at
    right-dense points) are excluded from the second supremum.
    """
    i0, ik = _kappa_range(x, t0, t1)
    # fmax skips the NaN slopes
    return norm_strong(x, t0, t1) + float(np.fmax.reduce(np.abs(x.slopes[i0 : ik + 1]), initial=0.0))
