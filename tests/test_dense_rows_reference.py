"""The dense path against a reference copy of the formulas it replaced, bit for bit.

The scale once kept sigma and rho index arrays, and the sample rows and
the strong norm gathered x(sigma(t)) through them, where they now copy
slices (TimeScale.at_sigma); the rows were built with np.where and
np.insert. The reference below is that code. The
scales mix dense intervals, uniform progressions and point lists, with
shared endpoints, and the trajectories have breaks on dense and on
scattered nodes.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from tsvar import (
    DenseInterval,
    DiscretePoints,
    GridFunction,
    Side,
    TimeScale,
    Uniform,
    VariationalProblem,
    norm_strong,
    norm_weak,
    parse_lagrangian,
)
from tsvar.variational import _build_rows

_TWO_SIDED, _LEFT, _RIGHT = 0, 1, 2


class Reference:
    """The earlier scale arrays, slopes, sample rows and norms of a trajectory x."""

    def __init__(self, x: GridFunction):
        ts = self.ts = x.scale
        self.x = x
        pts = ts.points
        self.rd, self.ld = ts.right_dense_mask, ts.left_dense_mask
        self.mu = np.zeros(pts.size)
        self.mu[:-1] = np.where(self.rd[:-1], 0.0, np.diff(pts))
        index = np.arange(pts.size)
        self.sigma_idx = index + (self.mu > 0.0)
        self.rho_idx = index - ~self.ld
        self.rho_idx[0] = 0
        self.slopes = self._slopes()

    def _slopes(self) -> np.ndarray:
        x, p, v, rd, ld = self.x, self.ts.points, self.x.values, self.rd, self.ld
        out = np.empty(p.size)
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(v[1:] - v[:-1], p[1:] - p[:-1], out=out[:-1])
            np.divide(v[2:] - v[:-2], p[2:] - p[:-2], out=out[1:-1], where=rd[1:-1] & ld[1:-1])
        starts = np.flatnonzero(rd & ~ld)
        if starts.size:
            out[starts] = x.one_sided(starts, 1)
        out[-1:] = x.one_sided(np.array([p.size - 1]), -1)
        if x.break_points:
            out[x.break_mask & (self.mu == 0.0)] = np.nan
        return out

    def rows(self, i0: int, i1: int) -> tuple[np.ndarray, ...]:
        x, pts, v, mu, rd, ld = self.x, self.ts.points, self.x.values, self.mu, self.rd, self.ld
        brk = x.break_mask
        here, ahead = slice(i0, i1), slice(i0 + 1, i1 + 1)
        gap = np.diff(pts[i0 : i1 + 1])
        at_break = brk[here]
        t = pts[here]
        xs = v[self.sigma_idx[here]]
        r = self.slopes[here].copy()
        breaks = np.flatnonzero(at_break)
        if breaks.size:
            r[breaks] = x.one_sided(i0 + breaks, 1)
        kind = np.where(at_break, _RIGHT, _TWO_SIDED).astype(np.int8)
        weight = np.where(rd[here], 0.5 * gap, mu[here])
        open_left = ld[i0 + 1 : i1] & rd[i0 + 1 : i1] & ~at_break[1:]
        weight[1:][open_left] += 0.5 * gap[:-1][open_left]
        closes = ld[ahead] & (brk[ahead] | ~rd[ahead])
        closes[-1] = ld[i1]
        at = np.flatnonzero(closes) + 1
        if not at.size:
            return t, xs, r, kind, weight
        left = i0 + at
        return (
            np.insert(t, at, pts[left]),
            np.insert(xs, at, v[left]),
            np.insert(r, at, x.one_sided(left, -1)),
            np.insert(kind, at, _LEFT),
            np.insert(weight, at, 0.5 * gap[at - 1]),
        )

    def norm_strong(self, i0: int, ik: int) -> float:
        return float(np.max(np.abs(self.x.values[self.sigma_idx[i0 : ik + 1]])))

    def norm_weak(self, i0: int, ik: int) -> float:
        slopes = np.abs(self.slopes[i0 : ik + 1])
        return self.norm_strong(i0, ik) + float(np.max(slopes, initial=0.0, where=~np.isnan(slopes)))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def mixed_scales(draw):
    """Two to five segments left to right, at least one dense, each sharing the last one's end or after a gap."""
    kinds = draw(st.lists(st.sampled_from(("dense", "uniform", "points")), min_size=1, max_size=4))
    kinds.insert(draw(st.integers(0, len(kinds))), "dense")
    segments, cursor = [], draw(st.sampled_from((-1.0, 0.0, 0.5)))
    for kind in kinds:
        if segments:
            cursor += draw(st.sampled_from((0.0, 0.0, 0.125, 0.75)))
        if kind == "dense":
            width = draw(st.sampled_from((0.25, 1.0, 2.5)))
            segment = DenseInterval(cursor, cursor + width, draw(st.integers(1, 12)))
        elif kind == "uniform":
            step = draw(st.sampled_from((0.125, 0.5)))
            segment = Uniform(cursor, cursor + draw(st.integers(1, 5)) * step, step)
        else:
            gaps = draw(st.lists(st.sampled_from((0.0625, 0.3, 1.0)), max_size=3))
            segment = DiscretePoints(cursor + np.concatenate(([0.0], np.cumsum(gaps))))
        segments.append(segment)
        cursor = segment.bounds()[1]
    return TimeScale(draw(st.permutations(segments)))


@settings(max_examples=400)
@given(ts=mixed_scales(), data=st.data())
def test_the_dense_path_matches_the_index_array_reference(ts, data):
    n = len(ts)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    size = data.draw(st.sampled_from((1.0, 1e300, 1e308)))  # 1e308: quotients that overflow
    breaks = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    x = GridFunction(ts, size * rng.uniform(-1.0, 1.0, n), tuple(float(ts.points[i]) for i in breaks))
    ref = Reference(x)
    rd, ld = ts.right_dense_mask, ts.left_dense_mask

    assert same_bits(ts.mu_values(), ref.mu)
    assert same_bits(ts.sigma_indices(), ref.sigma_idx) and not ts.sigma_indices().flags.writeable
    assert same_bits(ts.rho_indices(), ref.rho_idx) and not ts.rho_indices().flags.writeable
    assert same_bits(ts.at_sigma(x.values, 0, n), x.values[ref.sigma_idx])
    for i, t in enumerate(ts.points.tolist()):
        assert ts.sigma(t) == float(ts.points[ref.sigma_idx[i]])
        assert ts.rho(t) == float(ts.points[ref.rho_idx[i]])
        cls = ts.classify(t)
        assert cls.right is (Side.SCATTERED if ref.mu[i] > 0.0 else Side.DENSE)
        assert cls.left is (Side.SCATTERED if ref.rho_idx[i] < i else Side.DENSE)
    assert same_bits(x.slopes, ref.slopes)

    # windows that end at the maximum, at the top of a dense run, or inside one
    ends = {n - 1, *np.flatnonzero(ld & ~rd).tolist(), *np.flatnonzero(ld & rd).tolist()}
    i1 = data.draw(st.sampled_from(sorted(ends)))
    i0 = data.draw(st.integers(0, i1 - 1))
    t0, t1 = float(ts.points[i0]), float(ts.points[i1])
    problem = VariationalProblem(ts, t0, t1, parse_lagrangian("r^2"), 0.0, 0.0)
    for got, want in zip(_build_rows(problem, x), ref.rows(i0, i1), strict=True):
        assert same_bits(got, want)
    i0, ik = ts.kappa_range(t0, t1)
    assert norm_strong(x, t0, t1) == ref.norm_strong(i0, ik)
    assert norm_weak(x, t0, t1) == ref.norm_weak(i0, ik)
