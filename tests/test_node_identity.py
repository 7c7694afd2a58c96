"""Node identity: the scale's build and lookups against a reference copy of the
coordinate rule they replace, and the modules that may read POINT_TOLERANCE."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tsvar
from tsvar import DenseInterval, DiscretePoints, Geometric, InvalidParameter, PointNotInScale, TimeScale, Uniform
from tsvar.timescale import POINT_TOLERANCE as TOL


class SpanRuleScale:
    """Reference copy of the earlier build and lookups.

    Dense spans are kept as (lo, hi) pairs and applied to coordinates with
    the tolerance: a node is right-dense when it lies in [lo - TOL, hi - TOL)
    of a span, and a t off the nodes is in the scale when it lies in
    (lo + TOL, hi - TOL) of one. Each test is a difference (p - lo > TOL,
    not p > lo + TOL), as the build's are: where one ulp exceeds 2 * TOL,
    lo + TOL rounds to lo.
    """

    def __init__(self, segments):
        segs = sorted(segments, key=lambda s: s.bounds())
        pts = np.sort(np.concatenate([s.realize() for s in segs]))
        pts = pts[np.concatenate(([True], np.diff(pts) > TOL))]
        self.spans = [(s.lo, s.hi) for s in segs if isinstance(s, DenseInterval)]
        self.right_dense = np.zeros(pts.size, dtype=bool)
        self.left_dense = np.zeros(pts.size, dtype=bool)
        for lo, hi in self.spans:
            self.right_dense |= (lo - pts <= TOL) & (hi - pts > TOL)
            self.left_dense |= (pts - lo > TOL) & (pts - hi <= TOL)
        self.mu = np.zeros(pts.size)
        self.mu[:-1] = np.where(self.right_dense[:-1], 0.0, np.diff(pts))
        index = np.arange(pts.size)
        self.sigma_idx = index + (self.mu > 0.0)
        self.rho_idx = index - ~self.left_dense
        self.rho_idx[0] = 0
        self.points = pts

    def _canonical(self, t):
        i = int(np.searchsorted(self.points, t))
        for j in (i - 1, i):
            if 0 <= j < self.points.size and abs(self.points[j] - t) <= TOL:
                return float(self.points[j]), j
        if any(t - lo > TOL and hi - t > TOL for lo, hi in self.spans):
            return float(t), None
        raise PointNotInScale(t)

    def sigma(self, t):
        t, i = self._canonical(t)
        return t if i is None else float(self.points[self.sigma_idx[i]])

    def rho(self, t):
        t, i = self._canonical(t)
        return t if i is None else float(self.points[self.rho_idx[i]])

    def mu_at(self, t):
        _, i = self._canonical(t)
        return 0.0 if i is None else float(self.mu[i])

    def classify(self, t):
        t, _ = self._canonical(t)
        return ("scattered" if self.sigma(t) > t else "dense", "scattered" if self.rho(t) < t else "dense")


SHIFTS = (0.0, 0.4 * TOL, -0.4 * TOL)  # a shared end, exact or within the tolerance


@st.composite
def laid_out_segments(draw):
    """Two to five segments from left to right, each after a gap or sharing the last one's end.

    Gives the segments in a drawn order, and whether a chain of shared ends
    (a segment's end, single points, the next segment's start) spans more
    than the tolerance: such a layout is invalid.
    """
    segments, cursor = [], draw(st.sampled_from((0.5, 1.0, 3.25)))
    chain, wide = [], False  # the values of the current chain of shared ends
    for _ in range(draw(st.integers(2, 5))):
        if segments:
            shift = draw(st.sampled_from((1e-9, 0.003, 0.5, 2.0, *SHIFTS, 0.0, 0.0)))
            cursor += shift
            chain = chain if shift in SHIFTS else []
        kind = draw(st.sampled_from(("points", "uniform", "geometric", "dense")))
        if kind == "points":
            gaps = draw(st.lists(st.sampled_from((0.01, 0.1, 0.37, 1.0)), max_size=4))
            segment = DiscretePoints(tuple(cursor + np.concatenate(([0.0], np.cumsum(gaps)))))
        elif kind == "uniform":
            step = draw(st.sampled_from((0.05, 0.25, 1.0)))
            segment = Uniform(cursor, cursor + draw(st.integers(1, 6)) * step, step)
        elif kind == "geometric":
            ratio = draw(st.sampled_from((1.5, 2.0, 3.0)))
            segment = Geometric(cursor, cursor * ratio ** draw(st.integers(0, 4)), ratio)
        else:
            width = draw(st.sampled_from((0.001, 0.3, 1.0, 2.5)))
            segment = DenseInterval(cursor, cursor + width, draw(st.integers(1, 12)))
        segments.append(segment)
        lo, cursor = segment.bounds()
        chain.append(lo)
        wide = wide or max(chain) - min(chain) > TOL
        chain = chain if lo == cursor else [cursor]
    return draw(st.permutations(segments)), wide


def _outcome(lookup, t):
    try:
        return lookup(t)
    except PointNotInScale:
        return PointNotInScale


def _chain_after_dense(step, points):
    """Dense [0, 1], then single points and a uniform segment's start, each step past the last."""
    ends = [1.0 + k * step for k in range(1, points + 2)]
    return [DenseInterval(0.0, 1.0, 4), *(DiscretePoints((e,)) for e in ends[:-1]), Uniform(ends[-1], ends[-1] + 1, 0.5)]


@settings(max_examples=300)
@given(layout=laid_out_segments(), seed=st.integers(0, 2**32 - 1))
@example(layout=(_chain_after_dense(0.4 * TOL, 1), False), seed=0)
@example(layout=(_chain_after_dense(-0.4 * TOL, 1), False), seed=0)
@example(layout=(_chain_after_dense(0.4 * TOL, 2), True), seed=0)
@example(layout=(_chain_after_dense(-0.4 * TOL, 2), True), seed=0)
def test_nodes_and_lookups_match_the_span_rule(layout, seed):
    segments, wide = layout
    if wide:
        with pytest.raises(InvalidParameter):
            TimeScale(segments)
        return
    ts = TimeScale(segments)
    ref = SpanRuleScale(segments)
    assert np.array_equal(ts.points, ref.points)
    assert np.array_equal(ts.right_dense_mask, ref.right_dense)
    assert np.array_equal(ts.left_dense_mask, ref.left_dense)
    assert np.array_equal(ts.mu_values(), ref.mu)
    assert np.array_equal(ts.sigma_indices(), ref.sigma_idx)
    assert np.array_equal(ts.rho_indices(), ref.rho_idx)

    rng = np.random.default_rng(seed)
    nodes = ts.points
    near = [nodes + offset for offset in (0.4 * TOL, -0.4 * TOL, 3 * TOL, -3 * TOL, 1e-7, -1e-7)]
    queries = np.concatenate([nodes, *near, rng.uniform(ts.min - 1.0, ts.max + 1.0, 40)])
    for t in queries.tolist():
        assert _outcome(ts.sigma, t) == _outcome(ref.sigma, t)
        assert _outcome(ts.rho, t) == _outcome(ref.rho, t)
        assert _outcome(ts.mu, t) == _outcome(ref.mu_at, t)
        got = _outcome(ts.classify, t)
        expected = _outcome(ref.classify, t)
        assert got == expected if got is PointNotInScale else (got.right.value, got.left.value) == expected


def test_only_the_scale_and_the_sample_loader_read_the_point_tolerance():
    src = Path(tsvar.__file__).parent
    readers = sorted(path.name for path in src.glob("*.py") if "POINT_TOLERANCE" in path.read_text())
    assert readers == ["problemfile.py", "timescale.py"]


@pytest.mark.parametrize("n_max", [2, 50])
def test_a_harmonic_scale_spec_builds_one_scale(monkeypatch, n_max):
    from tsvar.problemfile import scale_from_spec

    builds = []
    init = TimeScale.__init__
    monkeypatch.setattr(TimeScale, "__init__", lambda self, *a, **k: builds.append(1) or init(self, *a, **k))
    ts = scale_from_spec({"kind": "harmonic", "n_max": n_max})
    assert len(builds) == 1
    expected = tsvar.make_harmonic(n_max)
    assert np.array_equal(ts.points, expected.points) and dict(ts.metadata) == dict(expected.metadata)
