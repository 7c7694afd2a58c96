"""Bounded time scales built from computable segments.

A time scale is a nonempty closed subset of the reals. Here it is a finite
union of segments: explicit point lists, uniform and geometric progressions,
and dense intervals. Jump operators are exact: interior points of a dense
interval have sigma(t) = t and mu(t) = 0 regardless of the quadrature
resolution attached to the interval; the resolution only controls how dense
segments are sampled and integrated.

Values are immutable after construction, so every operation is pure and safe
to call concurrently.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import EmptyInterval, InvalidParameter, PointNotInScale

# Absolute tolerance for point membership and shared segment endpoints. All scale
# points are canonicalized at construction, so repeated sigma/rho chains cannot drift.
POINT_TOLERANCE = 1e-12

# Most points one segment may have; each constructor checks before it allocates.
MAX_SEGMENT_POINTS = 10**7
# Most points the segments of one scale may have together, a shared endpoint
# once per segment; TimeScale checks before it realizes any segment.
MAX_SCALE_POINTS = 10**7


def _check_count(kind: str, count: float) -> None:
    if not count <= MAX_SEGMENT_POINTS:
        limit = f"a segment has at most {MAX_SEGMENT_POINTS:,}"
        raise InvalidParameter(f"{kind} would have {count:.0f} points; {limit}")


def _vector(values, message: str, finite: bool = False) -> np.ndarray:
    """values as a float array; InvalidParameter(message) unless a nonempty 1-d sequence of numbers.

    Numbers are real numbers, as for the scalar arguments of the segments:
    strings, bytes, complex numbers and other objects are not.
    """
    try:
        a = np.asarray(values)
        if a.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in a.flat):
            a = a.astype(float)  # such as an int beyond int64
    except (ValueError, OverflowError):  # ragged, or an int beyond the float range
        raise InvalidParameter(message) from None
    if a.dtype.kind not in "biuf" or a.ndim != 1 or not a.size:
        raise InvalidParameter(message)
    a = a.astype(float, copy=False)
    if finite and not np.isfinite(a).all():
        raise InvalidParameter(message)
    return a


def _is_finite_number(value) -> bool:
    """True for a finite real number; a bool is not one."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_whole(value, least: int) -> bool:
    """True for an integer (of any numeric type) of at least least."""
    return _is_finite_number(value) and int(value) == value >= least


def _store_finite(record, **fields) -> None:
    """Store each field of record as a float, in order; InvalidParameter naming it unless finite."""
    for name, value in fields.items():
        if not _is_finite_number(value):
            raise InvalidParameter(f"{type(record).__name__} {name} must be a finite number")
        object.__setattr__(record, name, float(value))


class _Frozen:
    """A record whose fields its __init__ sets once, with object.__setattr__.

    Setting or deleting an attribute afterwards raises AttributeError. ==,
    hash and repr read the fields named in _fields, in order, and == holds
    only between records of one class; a record that compares by identity
    puts object's __eq__ and __hash__ back. A subclass without __slots__
    has a __dict__, which functools.cached_property needs.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _record_eq(self, other):
    # a NamedTuple is a tuple, and tuple's == takes any tuple of the same
    # items; NotImplemented would hand a tuple to it, so a tuple is unequal
    if other.__class__ is self.__class__:
        return tuple.__eq__(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def _record_ne(self, other):
    if other.__class__ is self.__class__:
        return tuple.__ne__(self, other)
    return True if isinstance(other, tuple) else NotImplemented


def _record_hash(self) -> int:
    return hash((self.__class__, tuple.__hash__(self)))


# ==, != and hash of a NamedTuple record that compares by value: only with
# a record of its own class, field by field, and hashed with its class
_BY_VALUE = (_record_eq, _record_ne, _record_hash)


def evenly_spaced(lo: float, hi: float, count: int) -> np.ndarray:
    """np.linspace(lo, hi, count), with every value finite also when hi - lo overflows."""
    if math.isinf(hi - lo):  # halving is exact, and brings the span into range
        return 2.0 * np.linspace(0.5 * lo, 0.5 * hi, count)
    return np.linspace(lo, hi, count)


class DiscretePoints(_Frozen):
    """A finite, strictly increasing list of isolated points.

    points is a read-only float64 array, a copy of the values passed in.
    Because that field is an array, a DiscretePoints compares by identity,
    as a TimeScale does; the other segments compare by value.
    """

    _fields = ("points",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, points: np.ndarray):
        message = "DiscretePoints points must be a nonempty 1-d sequence of finite numbers"
        pts = _vector(points, message, finite=True).copy()
        with np.errstate(over="ignore"):  # a gap beyond the float range still increases
            increasing = (np.diff(pts) > POINT_TOLERANCE).all()
        if not increasing:
            raise InvalidParameter("DiscretePoints must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_count", pts.size)

    def realize(self) -> np.ndarray:
        return self.points

    def bounds(self) -> tuple[float, float]:
        return float(self.points[0]), float(self.points[-1])


class Uniform(_Frozen):
    """Arithmetic progression from start to end with positive step."""

    _fields = ("start", "end", "step")

    def __init__(self, start: float, end: float, step: float):
        _store_finite(self, start=start, end=end, step=step)
        if self.step <= 0:
            raise InvalidParameter("Uniform step must be positive")
        if self.end <= self.start:
            raise InvalidParameter("Uniform requires end > start")
        start, end, step = self.start, self.end, self.step
        if math.isinf(end - start):  # halving is exact, and brings the span into range
            start, end, step = 0.5 * start, 0.5 * end, 0.5 * step
        steps = (end - start) / step
        _check_count("Uniform", steps + 1)
        k = round(steps)
        if k < 1 or abs(start + k * step - end) > POINT_TOLERANCE:
            raise InvalidParameter(
                "Uniform span must be an integer multiple of the step"
            )
        object.__setattr__(self, "_count", int(k) + 1)

    def realize(self) -> np.ndarray:
        return evenly_spaced(self.start, self.end, self._count)

    def bounds(self) -> tuple[float, float]:
        return self.start, self.end


class Geometric(_Frozen):
    """Geometric progression minimum, minimum*ratio, ..., maximum."""

    _fields = ("minimum", "maximum", "ratio")

    def __init__(self, minimum: float, maximum: float, ratio: float):
        _store_finite(self, minimum=minimum, maximum=maximum, ratio=ratio)
        if self.minimum <= 0:
            raise InvalidParameter("Geometric minimum must be positive")
        if self.ratio <= 1:
            raise InvalidParameter("Geometric ratio must exceed 1")
        if self.maximum < self.minimum:
            raise InvalidParameter("Geometric requires maximum >= minimum")
        # logs, not log(maximum / minimum): the quotient can overflow
        steps = (math.log(self.maximum) - math.log(self.minimum)) / math.log(self.ratio)
        _check_count("Geometric", steps + 1)
        k = round(steps)
        end = float(self._powers(np.float64(k)))
        if abs(end - self.maximum) > 1e-12 * abs(self.maximum):
            raise InvalidParameter(
                "Geometric maximum must equal minimum * ratio**k for integer k"
            )
        object.__setattr__(self, "_count", int(k) + 1)

    def _powers(self, n):
        """minimum * ratio**n for whole n >= 0; from logs where ratio**n alone overflows.

        A product beyond the float range is inf.
        """
        with np.errstate(over="ignore"):
            powers = self.ratio**n
            if np.isinf(powers).any():
                return np.exp(math.log(self.minimum) + n * math.log(self.ratio))
            return self.minimum * powers

    def realize(self) -> np.ndarray:
        pts = self._powers(np.arange(self._count, dtype=float))
        pts[0], pts[-1] = self.minimum, self.maximum  # exact ends, also from logs
        return pts

    def bounds(self) -> tuple[float, float]:
        return self.minimum, self.maximum


class DenseInterval(_Frozen):
    """A real interval [lo, hi], sampled on resolution+1 quadrature nodes.

    The interval itself belongs to the scale; the nodes are only the
    representative points used for grid functions and quadrature.
    """

    _fields = ("lo", "hi", "resolution")

    def __init__(self, lo: float, hi: float, resolution: int = 1000):
        _store_finite(self, lo=lo, hi=hi)
        if self.hi <= self.lo:
            raise InvalidParameter("DenseInterval requires lo < hi")
        if not _is_whole(resolution, 1):
            raise InvalidParameter("DenseInterval resolution must be a positive integer")
        _check_count("DenseInterval", resolution + 1)
        object.__setattr__(self, "resolution", int(resolution))
        object.__setattr__(self, "_count", self.resolution + 1)

    def realize(self) -> np.ndarray:
        return evenly_spaced(self.lo, self.hi, self._count)

    def bounds(self) -> tuple[float, float]:
        return self.lo, self.hi


Segment = Union[DiscretePoints, Uniform, Geometric, DenseInterval]


class Side(str, Enum):
    SCATTERED = "scattered"
    DENSE = "dense"


class PointClass(NamedTuple):
    """Right/left classification of a scale point.

    A point is right-scattered iff sigma(t) > t and left-scattered iff
    rho(t) < t. At the scale extrema the jump operators return the point
    itself, so minima are left-dense and maxima right-dense by convention.
    """

    right: Side
    left: Side
    __eq__, __ne__, __hash__ = _BY_VALUE

    def describe(self) -> str:
        return f"right-{self.right.value}, left-{self.left.value}"


class TimeScale:
    """Immutable bounded time scale with exact jump operators.

    Parameters
    ----------
    segments :
        Nonempty iterable of segments, with at most MAX_SCALE_POINTS points
        together (checked before any is realized; a shared endpoint counts in
        each of its segments). Segments must be pairwise disjoint; they may
        share endpoints, each then one node; any other two points
        closer than POINT_TOLERANCE raise InvalidParameter. The segments are
        ordered by midpoint (ties by bounds), and a segment whose start lies
        within POINT_TOLERANCE of the previous segment's end shares that
        endpoint with it, in either order of the two values: the node takes
        the lower value. All the values one node takes in must lie within
        POINT_TOLERANCE of each other, so a chain of shared endpoints is no
        wider than the tolerance.
    metadata :
        Free-form construction notes (e.g. the truncation parameter of a
        harmonic scale).
    """

    def __init__(self, segments: Iterable[Segment], metadata: Optional[Mapping] = None):
        segs = tuple(segments) if isinstance(segments, Iterable) else ()
        if not segs or not all(isinstance(s, Segment) for s in segs):
            raise InvalidParameter("TimeScale segments must be a nonempty sequence of segments")
        if metadata is not None and not isinstance(metadata, Mapping):
            raise InvalidParameter("TimeScale metadata must be a mapping")
        total = sum(s._count for s in segs)
        if total > MAX_SCALE_POINTS:
            limit = f"a scale has at most {MAX_SCALE_POINTS:,}"
            raise InvalidParameter(f"the segments would have {total:,} points; {limit}")
        # by midpoint: unlike (lo, hi), it puts a single point just above a segment's start first
        segs = tuple(sorted(segs, key=lambda s: (0.5 * s.bounds()[0] + 0.5 * s.bounds()[1], *s.bounds())))
        parts = [s.realize() for s in segs]
        crowded = f"segment points closer than {POINT_TOLERANCE:g} would merge"
        first_nodes = [0]
        shared = {}  # node index -> value of each shared endpoint: one node, the lowest value
        count = parts[0].size
        low = high = segs[0].bounds()[1]  # the lowest and highest value merged into node count - 1
        for j in range(1, len(segs)):
            start, (lo, end) = segs[j - 1].bounds()[0], segs[j].bounds()
            if high - lo > POINT_TOLERANCE:
                raise InvalidParameter(
                    f"segments overlap near t={max(start, lo)!r}; segments may only share endpoints"
                )
            joint = lo - high <= POINT_TOLERANCE
            if joint:
                low, high = min(low, lo), max(high, lo)
                if high - low > POINT_TOLERANCE:  # a chain of shared endpoints wider than the tolerance
                    raise InvalidParameter(crowded)
                shared[count - 1] = low
                parts[j] = parts[j][1:]
            first_nodes.append(count - joint)
            count += parts[j].size
            if parts[j].size:
                low = high = end
        pts = np.concatenate(parts)
        del parts  # the segment arrays are not kept
        for i, value in shared.items():
            pts[i] = value
        if math.isinf(float(pts[-1]) - float(pts[0])):
            raise InvalidParameter("TimeScale segments must span less than the float range")
        mu = np.empty(pts.size)  # the gaps first: the graininess off the dense spans
        np.subtract(pts[1:], pts[:-1], out=mu[:-1])
        mu[-1] = 0.0
        if not (mu[:-1] > POINT_TOLERANCE).all():  # points that are no shared endpoint
            raise InvalidParameter(crowded)
        pts.setflags(write=False)

        right_dense = np.zeros(pts.size, dtype=bool)
        left_dense = np.zeros(pts.size, dtype=bool)
        for s, i in zip(segs, first_nodes):
            if isinstance(s, DenseInterval):
                right_dense[i : i + s.resolution] = True
                left_dense[i + 1 : i + s.resolution + 1] = True
                mu[i : i + s.resolution] = 0.0
        for arr in (right_dense, left_dense, mu):
            arr.setflags(write=False)

        self._segments = segs
        self._points = pts
        self._right_dense = right_dense
        self._left_dense = left_dense
        self._mu = mu
        self.metadata = MappingProxyType(dict(metadata or {}))

    # -- basic introspection -------------------------------------------------

    @property
    def segments(self) -> tuple[Segment, ...]:
        return self._segments

    @property
    def points(self) -> np.ndarray:
        """All representative points, sorted (dense-segment nodes included)."""
        return self._points

    @property
    def min(self) -> float:
        return float(self._points[0])

    @property
    def max(self) -> float:
        return float(self._points[-1])

    @property
    def right_dense_mask(self) -> np.ndarray:
        """True per node when the node is right-dense (strictly below a dense-span top)."""
        return self._right_dense

    @property
    def left_dense_mask(self) -> np.ndarray:
        return self._left_dense

    def __len__(self) -> int:
        return self._points.size

    def __repr__(self) -> str:
        kind = self.metadata.get("kind", "timescale")
        return (
            f"TimeScale({kind}, {self._points.size} points on "
            f"[{self.min:g}, {self.max:g}])"
        )

    # -- membership ----------------------------------------------------------

    def _locate(self, t) -> tuple[int, bool]:
        """(i, True) when t is node i; else (i, False), i the last node below t or -1.

        A t that is not a finite real number is below every node.
        """
        if not _is_finite_number(t):
            return -1, False
        t = float(t)
        i = int(np.searchsorted(self._points, t))
        for j in (i - 1, i):
            if 0 <= j < self._points.size and abs(self._points[j] - t) <= POINT_TOLERANCE:
                return j, True
        return i - 1, False

    def node_index(self, t: float) -> Optional[int]:
        """Index of the node equal to t (within POINT_TOLERANCE), else None."""
        i, at_node = self._locate(t)
        return i if at_node else None

    def index_of(self, t: float) -> int:
        """Index of the representative point t; raises PointNotInScale."""
        i = self.node_index(t)
        if i is None:
            raise PointNotInScale(f"t={t!r} is not a representative point of the scale")
        return i

    def _canonical(self, t: float) -> tuple[float, Optional[int]]:
        """Snap t to its stored node value; (t, None) past a right-dense node, inside a dense span."""
        i, at_node = self._locate(t)
        if at_node:
            return float(self._points[i]), i
        if i >= 0 and self._right_dense[i]:
            return float(t), None
        raise PointNotInScale(f"t={t!r} is not in the scale")

    # -- jump operators ------------------------------------------------------

    def sigma(self, t: float) -> float:
        """Least scale point strictly above t; t itself at the maximum."""
        t, i = self._canonical(t)
        return t if i is None else float(self._points[i + (self._mu[i] > 0.0)])

    def rho(self, t: float) -> float:
        """Greatest scale point strictly below t; t itself at the minimum."""
        t, i = self._canonical(t)
        return t if i is None else float(self._points[i - self._left_scattered(i)])

    def _left_scattered(self, i: int) -> bool:
        """Whether node i lies above a gap: any node but the minimum that is not left-dense."""
        return i > 0 and not self._left_dense[i]

    def mu(self, t: float) -> float:
        """Graininess sigma(t) - t; zero at right-dense points and at the maximum."""
        t, i = self._canonical(t)
        return 0.0 if i is None else float(self._mu[i])

    def classify(self, t: float) -> PointClass:
        _, i = self._canonical(t)
        if i is None:  # inside a dense span
            return PointClass(right=Side.DENSE, left=Side.DENSE)
        return PointClass(
            right=Side.SCATTERED if self._mu[i] > 0.0 else Side.DENSE,
            left=Side.SCATTERED if self._left_scattered(i) else Side.DENSE,
        )

    # -- windows -------------------------------------------------------------

    def window_indices(self, t0: float, t1: float) -> tuple[int, int]:
        """Inclusive node-index range of [t0, t1]; endpoints must be nodes."""
        i0, i1 = self.index_of(t0), self.index_of(t1)
        if t1 <= t0:
            raise EmptyInterval(f"interval requires t0 < t1, got [{t0!r}, {t1!r}]")
        return i0, i1

    def kappa_range(self, t0: float, t1: float) -> tuple[int, int]:
        """Inclusive node-index range of [t0, t1]^kappa: t1 is dropped when left-scattered."""
        i0, i1 = self.window_indices(t0, t1)
        return i0, i1 - 1 if i1 > 0 and not self._left_dense[i1] else i1

    def kappa_points(self, t0: float, t1: float) -> np.ndarray:
        """Representative points of [t0, t1]^kappa.

        All points of [t0, t1] intersected with the scale, dropping t1 when
        it is left-scattered. Dense segments contribute their quadrature
        nodes.
        """
        i0, ik = self.kappa_range(t0, t1)
        return self._points[i0 : ik + 1].copy()

    # -- vectorized helpers (used by the calculus layer) ----------------------

    def mu_values(self) -> np.ndarray:
        """Graininess per representative point, as a read-only array."""
        return self._mu

    def at_sigma(self, values: np.ndarray, i0: int, i1: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """x(sigma(t)) at nodes i0 .. i1 - 1 of values given per node.

        The value at node i + 1 where mu > 0 and at node i itself where mu
        is 0, copied from two slices into out (a new array when None).
        """
        out = np.empty(i1 - i0) if out is None else out
        np.copyto(out, values[i0:i1])
        ahead = values[i0 + 1 : i1 + 1]  # one short when i1 is past the maximum, where mu is 0
        np.copyto(out[: ahead.size], ahead, where=self._mu[i0 : i0 + ahead.size] > 0.0)
        return out

    def sigma_indices(self) -> np.ndarray:
        """Per-node index of sigma(node), read-only, built on each call; the node itself when right-dense or last."""
        index = np.arange(self._points.size) + (self._mu > 0.0)
        index.setflags(write=False)
        return index

    def rho_indices(self) -> np.ndarray:
        """Per-node index of rho(node), read-only, built on each call; the node itself when left-dense or first."""
        index = np.arange(self._points.size) - ~self._left_dense
        index[0] = 0  # the minimum is its own rho
        index.setflags(write=False)
        return index


def make_points(values: Sequence[float]) -> TimeScale:
    """Scale consisting of the given strictly increasing points."""
    return TimeScale([DiscretePoints(values)])


def make_uniform(start: float, end: float, step: float) -> TimeScale:
    """Arithmetic-progression scale, e.g. a bounded window of h*Z."""
    return TimeScale(
        [Uniform(start, end, step)],
        metadata={"kind": "uniform", "start": start, "end": end, "step": step},
    )


def make_geometric(minimum: float, maximum: float, ratio: float) -> TimeScale:
    """Geometric-progression scale, a bounded window of q**N with q = ratio.

    On this scale sigma(t) = ratio*t and mu(t) = (ratio-1)*t exactly for all
    interior points.
    """
    return TimeScale(
        [Geometric(minimum, maximum, ratio)],
        metadata={"kind": "geometric", "minimum": minimum, "maximum": maximum, "ratio": ratio},
    )


def make_dense(lo: float, hi: float, resolution: int = 1000) -> TimeScale:
    """Dense interval [lo, hi] with the given quadrature resolution."""
    return TimeScale(
        [DenseInterval(lo, hi, resolution)],
        metadata={"kind": "dense", "lo": lo, "hi": hi, "resolution": resolution},
    )


def make_harmonic(n_max: int) -> TimeScale:
    """The harmonic scale {1/n : 1 <= n <= n_max} together with 0.

    The untruncated object {1/n : n in N} union {0} is closed with 0 as an
    accumulation point; any computable representation must cut the sequence
    at some n_max, which is recorded in the metadata. At the truncation
    point 0 the computed graininess 1/n_max is an artifact of the cut.
    """
    segment, metadata = harmonic_segment(n_max)
    return TimeScale([segment], metadata)


def harmonic_segment(n_max: int) -> tuple[DiscretePoints, dict]:
    """The points of make_harmonic(n_max) as one segment, and the scale's metadata."""
    if not _is_whole(n_max, 2):
        raise InvalidParameter("make_harmonic requires an integer n_max >= 2")
    _check_count("make_harmonic", n_max + 1)
    pts = np.concatenate(([0.0], 1.0 / np.arange(int(n_max), 0, -1)))
    return DiscretePoints(pts), {"kind": "harmonic", "n_max": int(n_max), "truncation_point": 0.0}


def union(*scales: TimeScale) -> TimeScale:
    """Union of several time scales (segments merged and re-validated)."""
    if not scales:
        raise InvalidParameter("union requires at least one scale")
    segs: list[Segment] = []
    for s in scales:
        if not isinstance(s, TimeScale):
            raise InvalidParameter("union takes time scales")
        segs.extend(s.segments)
    return TimeScale(segs)
