"""Time scale construction, jump operators, and classification."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsvar import (
    DenseInterval,
    DiscretePoints,
    EmptyInterval,
    Geometric,
    InvalidParameter,
    PointNotInScale,
    Side,
    TimeScale,
    Uniform,
    make_dense,
    make_geometric,
    make_harmonic,
    make_points,
    make_uniform,
    union,
)
from tsvar.timescale import MAX_SCALE_POINTS, MAX_SEGMENT_POINTS
from conftest import random_discrete_scale


class TestSegments:
    def test_discrete_points_must_increase(self):
        with pytest.raises(InvalidParameter):
            DiscretePoints((0.0, 1.0, 1.0))
        with pytest.raises(InvalidParameter):
            DiscretePoints((2.0, 1.0))
        with pytest.raises(InvalidParameter):
            DiscretePoints(())

    def test_uniform_step_must_divide_span(self):
        with pytest.raises(InvalidParameter):
            Uniform(0.0, 1.0, 0.3)
        with pytest.raises(InvalidParameter):
            Uniform(0.0, 1.0, -0.5)
        seg = Uniform(0.0, 4.0, 1.0)
        assert np.allclose(seg.realize(), [0, 1, 2, 3, 4])

    def test_geometric_requires_integral_exponent(self):
        with pytest.raises(InvalidParameter):
            Geometric(1.0, 15.0, 2.0)
        with pytest.raises(InvalidParameter):
            Geometric(-1.0, 16.0, 2.0)
        with pytest.raises(InvalidParameter):
            Geometric(1.0, 16.0, 0.5)
        assert np.allclose(Geometric(1.0, 16.0, 2.0).realize(), [1, 2, 4, 8, 16])

    def test_dense_interval_validation(self):
        with pytest.raises(InvalidParameter):
            DenseInterval(1.0, 1.0)
        with pytest.raises(InvalidParameter):
            DenseInterval(0.0, 1.0, resolution=0)
        assert DenseInterval(0.0, 1.0, 4).realize().size == 5

    def test_dense_interval_across_the_float_range(self):
        # hi - lo overflows; the nodes are still the evenly spaced finite ones
        assert DenseInterval(-1e308, 1e308, 4).realize().tolist() == [-1e308, -5e307, 0.0, 5e307, 1e308]

    def test_overlapping_segments_rejected(self):
        with pytest.raises(InvalidParameter):
            TimeScale([DenseInterval(0.0, 1.0, 10), DiscretePoints((0.5,))])
        with pytest.raises(InvalidParameter):
            TimeScale([Uniform(0.0, 4.0, 1.0), Uniform(3.0, 6.0, 1.0)])
        # a chain of shared endpoints that takes the last start more than 1e-12 below the dense end
        chain = [DiscretePoints((1 - 0.8e-12,)), DiscretePoints((1 - 0.4e-12,)), Uniform(1 - 1.2e-12, 2 - 1.2e-12, 0.5)]
        with pytest.raises(InvalidParameter, match="^segments overlap near t="):
            TimeScale([DenseInterval(0.0, 1.0, 4), *chain])

    @pytest.mark.parametrize("point_first", [True, False])
    def test_a_point_at_the_start_of_a_dense_interval_joins_in_either_order(self, point_first):
        segments = [DenseInterval(3, 4, 4), DiscretePoints((3.0,))]
        ts = TimeScale(segments[::-1] if point_first else segments)
        assert ts.points.tolist() == [3.0, 3.25, 3.5, 3.75, 4.0]
        assert ts.classify(3.0).right is Side.DENSE

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DenseInterval(0, math.inf, 4),
            lambda: DenseInterval(0, math.nan),
            lambda: DenseInterval(-math.inf, 0, 4),
            lambda: Uniform(0.0, math.nan, 1.0),
            lambda: Uniform(-math.inf, 0.0, 1.0),
            lambda: Geometric(1.0, math.inf, 2.0),
            lambda: Geometric(1.0, 4.0, math.nan),
        ],
    )
    def test_a_bound_must_be_finite(self, build):
        with pytest.raises(InvalidParameter, match="must be a finite number$"):
            build()

    @pytest.mark.parametrize(
        "build, argument",
        [
            (lambda: make_points(["a"]), "DiscretePoints points"),
            (lambda: make_points([None]), "DiscretePoints points"),
            # numbers as text or objects, which numpy's float conversion read as numbers
            (lambda: make_points(["0", "1.5"]), "DiscretePoints points"),
            (lambda: make_points(np.array(["0", "1"], dtype=object)), "DiscretePoints points"),
            (lambda: DiscretePoints((b"0", b"1")), "DiscretePoints points"),
            (lambda: make_points([1.5, 10**400]), "DiscretePoints points"),
            (lambda: Uniform("a", 1, 1), "Uniform start"),
            (lambda: TimeScale([1]), "TimeScale segments"),
            (lambda: make_dense(0.0, 1.0, None), "DenseInterval resolution"),
            (lambda: make_harmonic("10"), "n_max"),
        ],
    )
    def test_an_argument_that_is_not_a_number_is_named(self, build, argument):
        with pytest.raises(InvalidParameter, match=argument):
            build()

    def test_points_may_be_ints_beyond_int64(self):
        # numpy holds these in an object array; they are numbers all the same
        assert make_points([1.5, 2**70]).points.tolist() == [1.5, 2.0**70]
        assert DiscretePoints(np.array([0, 2**64], dtype=object)).points.tolist() == [0.0, 2.0**64]

    def test_a_uniform_span_beyond_the_float_range(self):
        # end - start overflows; the halves count 2 steps
        assert Uniform(-1e308, 1e308, 1e308).realize().tolist() == [-1e308, 0.0, 1e308]

    def test_a_geometric_quotient_beyond_the_float_range(self):
        # maximum / minimum and ratio**60 overflow; the points do not
        g = Geometric(1e-300, 1e300, 1e10)
        pts = g.realize()
        assert pts.size == 61 and np.isfinite(pts).all() and (np.diff(pts) > 0).all()
        assert pts[[0, 30, 60]].tolist() == [1e-300, pytest.approx(1.0, rel=1e-12), 1e300]
        assert np.allclose(pts[1:] / pts[:-1], 1e10, rtol=1e-12, atol=0.0)

    def test_a_ratio_power_beyond_the_float_range_is_no_maximum(self):
        # ratio**3 = 1e345 overflows; 1e300 is no power of 1e115
        with pytest.raises(InvalidParameter, match="maximum must equal minimum"):
            Geometric(1.0, 1e300, 1e115)

    def test_a_scale_spans_less_than_the_float_range(self):
        # every gap, and so every graininess, is finite
        with pytest.raises(InvalidParameter, match="span less than the float range"):
            make_points([-1e308, 1e308])

    def test_shared_endpoints_deduplicated(self):
        ts = TimeScale([Uniform(0.0, 2.0, 1.0), Uniform(2.0, 4.0, 1.0)])
        assert np.allclose(ts.points, [0, 1, 2, 3, 4])

    def test_an_endpoint_shared_by_three_segments_is_one_node(self):
        ts = TimeScale([Uniform(0, 2, 1), DiscretePoints((2.0,)), Uniform(2, 4, 1)])
        assert ts.points.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("point_first", [True, False])
    @pytest.mark.parametrize(
        "segment", [Uniform(1.0 - 4e-13, 2.0 - 4e-13, 0.5), DenseInterval(1.0 - 4e-13, 2.0, 4)]
    )
    def test_a_point_just_above_a_segment_start_joins_it(self, segment, point_first):
        # the segment starts just below the point and ends far above it
        segments = [DiscretePoints((1.0,)), segment]
        ts = TimeScale(segments if point_first else segments[::-1])
        assert ts.points.tolist() == segment.realize().tolist()
        assert ts.min == 1.0 - 4e-13  # the lower of the two values
        if isinstance(segment, DenseInterval):
            assert ts.classify(ts.min).right is Side.DENSE

    @pytest.mark.parametrize("segment_first", [True, False])
    @pytest.mark.parametrize("offset", [0.3e-12, -0.3e-12])
    def test_a_point_within_tolerance_of_a_segment_end_joins_it(self, offset, segment_first):
        segments = [Uniform(0.0, 1.0, 0.25), DiscretePoints((1.0 + offset,))]
        ts = TimeScale(segments if segment_first else segments[::-1])
        assert ts.points.tolist() == [0.0, 0.25, 0.5, 0.75, min(1.0, 1.0 + offset)]

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_an_endpoint_shared_within_tolerance_by_three_segments_is_one_node(self, order):
        dense = DenseInterval(1.0 + 0.8e-12, 2.0, 2)
        segments = [Uniform(0.0, 1.0, 0.5), DiscretePoints((1.0 + 0.4e-12,)), dense]
        ts = TimeScale([segments[i] for i in order])
        assert ts.points.tolist() == [0.0, 0.5, 1.0, dense.realize()[1], 2.0]
        assert ts.classify(1.0).describe() == "right-dense, left-scattered"

    @pytest.mark.parametrize("inner_first", [True, False])
    def test_nested_dense_intervals_overlap(self, inner_first):
        segments = [DenseInterval(0.0, 10.0, 10), DenseInterval(4.0, 5.0, 2)]
        with pytest.raises(InvalidParameter, match="^segments overlap near t=4.0;"):
            TimeScale(segments[::-1] if inner_first else segments)

    def test_a_points_array_is_copied(self):
        values = np.array([0.0, 1.0, 2.0])
        segment = DiscretePoints(values)
        values[1] = 5.0
        assert segment.points.tolist() == [0.0, 1.0, 2.0]
        assert not segment.points.flags.writeable

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_dense(0, 1e-11, 100),
            lambda: TimeScale([Uniform(0, 1e-11, 1e-13)]),
            lambda: TimeScale([Geometric(1e-20, 1e-10, 10)]),
            # an endpoint shared within tolerance, and a third point that would join it
            lambda: TimeScale([DiscretePoints((0.0, 1.0 - 1.5e-12, 1.0)), DiscretePoints((1.0 - 0.9e-12, 2.0))]),
            # a point that joins an end below it, and a segment within tolerance of that end only
            lambda: TimeScale([Uniform(0, 1, 0.5), DiscretePoints((1.0 - 0.4e-12,)), Uniform(1.0 + 0.7e-12, 2.0 + 0.7e-12, 0.5)]),
            # a chain of shared endpoints wider than the tolerance
            lambda: TimeScale([Uniform(0, 1, 0.5), DiscretePoints((1 + 0.4e-12,)), DiscretePoints((1 + 0.8e-12,)), DenseInterval(1 + 1.2e-12, 2, 2)]),
        ],
    )
    def test_segment_points_that_would_merge_are_rejected(self, build):
        with pytest.raises(InvalidParameter, match="^segment points closer than 1e-12 would merge$"):
            build()


class TestSegmentSize:
    """Every segment is rejected before it allocates more than MAX_SEGMENT_POINTS points."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Uniform(0.0, 1e9, 1.0),
            lambda: Uniform(0.0, 1.0, 1e-320),  # a step count beyond the float range
            lambda: Geometric(1.0, 2.0**40, 1.0 + 2.0**-20),
            lambda: DenseInterval(0.0, 1.0, MAX_SEGMENT_POINTS),
            lambda: make_harmonic(MAX_SEGMENT_POINTS),
        ],
    )
    def test_oversized_segment_is_rejected(self, build):
        with pytest.raises(InvalidParameter, match="a segment has at most 10,000,000"):
            build()

    def test_largest_segment_is_accepted(self):
        assert DenseInterval(0.0, 1.0, MAX_SEGMENT_POINTS - 1).resolution + 1 == MAX_SEGMENT_POINTS
        assert Uniform(0.0, MAX_SEGMENT_POINTS - 1.0, 1.0)._count == MAX_SEGMENT_POINTS


class TestScaleSize:
    """A scale is rejected before it realizes a segment when its segments have too many points."""

    def test_two_largest_segments_are_rejected_before_any_is_realized(self):
        big = DenseInterval(0.0, 1.0, MAX_SEGMENT_POINTS - 1), DenseInterval(2.0, 3.0, MAX_SEGMENT_POINTS - 1)
        tracemalloc.start()
        try:
            with pytest.raises(
                InvalidParameter,
                match="^the segments would have 20,000,000 points; a scale has at most 10,000,000$",
            ):
                TimeScale(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * MAX_SCALE_POINTS / 1000  # far below one float per node

    def test_a_shared_endpoint_counts_in_each_of_its_segments(self):
        half = MAX_SCALE_POINTS // 2
        with pytest.raises(InvalidParameter, match="would have 10,000,001 points"):
            TimeScale([DenseInterval(0.0, 1.0, half - 1), DenseInterval(1.0, 2.0, half)])

    def test_every_kind_of_segment_counts(self):
        kinds = [
            DiscretePoints([-3.0, -2.5]),
            Uniform(-2.0, -1.0, 0.5),
            Geometric(4.0, 16.0, 2.0),
            DenseInterval(0.0, 1.0, MAX_SCALE_POINTS - 9),
        ]
        assert [s._count for s in kinds] == [2, 3, 3, MAX_SCALE_POINTS - 8]
        with pytest.raises(InvalidParameter, match="would have 10,000,001 points"):
            TimeScale([*kinds, DiscretePoints([20.0])])


class TestJumpOperators:
    def test_sigma_integer_window(self):
        ts = make_points([0, 1, 2, 3])
        assert ts.sigma(2.0) == 3.0

    def test_sigma_harmonic_next_element(self):
        ts = make_harmonic(10)
        assert ts.sigma(1 / 3) == pytest.approx(0.5, abs=1e-15)

    def test_sigma_fixed_at_maximum(self):
        assert make_dense(0.0, 1.0, 100).sigma(1.0) == 1.0
        assert make_points([0, 1, 2, 3]).sigma(3.0) == 3.0

    def test_rho_integer_window(self):
        assert make_points([0, 1, 2, 3]).rho(2.0) == 1.0

    def test_rho_geometric_divides_by_ratio(self):
        assert make_geometric(1.0, 8.0, 2.0).rho(4.0) == 2.0

    def test_rho_fixed_at_minimum(self):
        assert make_dense(0.0, 1.0, 100).rho(0.0) == 0.0

    def test_mu_integer_window(self):
        ts = make_uniform(0.0, 5.0, 1.0)
        for t in range(5):
            assert ts.mu(float(t)) == 1.0
        assert ts.mu(5.0) == 0.0

    def test_mu_harmonic(self):
        assert make_harmonic(10).mu(1 / 3) == pytest.approx(1 / 6, abs=1e-15)

    def test_mu_geometric_ratio_three(self):
        ts = make_geometric(1.0, 27.0, 3.0)
        assert ts.mu(9.0) == pytest.approx(18.0, abs=1e-12)

    def test_dense_interior_is_exact(self):
        ts = make_dense(0.0, 1.0, 7)  # 0.3 is not a quadrature node
        assert ts.sigma(0.3) == 0.3
        assert ts.rho(0.3) == 0.3
        assert ts.mu(0.3) == 0.0

    def test_membership_tolerance(self):
        ts = make_points([0.0, 1.0, 2.0])
        assert ts.sigma(1.0 + 1e-13) == 2.0
        assert ts.mu(1.0 - 1e-13) == 1.0
        with pytest.raises(PointNotInScale):
            ts.sigma(0.7)

    @pytest.mark.parametrize("t", ["a", None, True, False, 1j, [1.0], math.nan, math.inf, 10**400])
    @pytest.mark.parametrize("lookup", ["sigma", "rho", "mu", "classify", "index_of"])
    def test_a_t_that_is_not_a_finite_real_number_is_not_in_the_scale(self, lookup, t):
        ts = union(make_points([0.0, 1.0]), make_dense(1.0, 2.0, 4))
        with pytest.raises(PointNotInScale):
            getattr(ts, lookup)(t)
        assert ts.node_index(t) is None


class TestClassify:
    def test_isolated_point_before_dense_interval(self):
        ts = union(make_points([0.0]), make_dense(1.0, 2.0, 10))
        cls = ts.classify(0.0)
        assert cls.right is Side.SCATTERED
        assert cls.left is Side.DENSE  # convention at the minimum

    def test_dense_interior(self):
        cls = make_dense(0.0, 1.0, 10).classify(0.5)
        assert cls.right is Side.DENSE and cls.left is Side.DENSE

    def test_harmonic_point_isolated(self):
        cls = make_harmonic(10).classify(0.5)
        assert cls.right is Side.SCATTERED and cls.left is Side.SCATTERED

    def test_dense_interval_boundary_nodes(self):
        ts = union(make_points([0.0]), make_dense(1.0, 2.0, 10), make_points([3.0]))
        assert ts.classify(1.0).right is Side.DENSE
        assert ts.classify(1.0).left is Side.SCATTERED
        assert ts.classify(2.0).right is Side.SCATTERED
        assert ts.classify(2.0).left is Side.DENSE


class TestKappaPoints:
    def test_drops_left_scattered_maximum(self):
        pts = make_points([0, 1, 2, 3]).kappa_points(0.0, 3.0)
        assert np.allclose(pts, [0, 1, 2])

    def test_keeps_left_dense_maximum(self):
        ts = make_dense(0.0, 1.0, 10)
        pts = ts.kappa_points(0.0, 1.0)
        assert pts.size == 11 and pts[-1] == 1.0

    def test_harmonic_drops_one(self):
        pts = make_harmonic(10).kappa_points(0.0, 1.0)
        assert pts[-1] == 0.5 and pts.size == 10

    def test_empty_interval(self):
        ts = make_points([0, 1, 2])
        with pytest.raises(EmptyInterval):
            ts.kappa_points(1.0, 1.0)
        with pytest.raises(EmptyInterval):
            ts.kappa_points(2.0, 1.0)

    def test_endpoints_must_be_in_scale(self):
        with pytest.raises(PointNotInScale):
            make_points([0, 1, 2]).kappa_points(0.25, 2.0)

    def test_scale_minimum_is_not_left_scattered(self):
        # t1 within the point tolerance of t0 = min snaps onto the minimum,
        # which rho leaves in place, so it stays in the kappa window
        ts = make_points([0, 1, 2])
        assert ts.kappa_range(0.0, 1e-13) == (0, 0)
        assert list(ts.kappa_points(0.0, 1e-13)) == [0.0]


class TestConstructors:
    def test_harmonic_enumeration(self):
        assert np.allclose(make_harmonic(3).points, [0, 1 / 3, 1 / 2, 1])
        assert np.allclose(make_harmonic(2).points, [0, 1 / 2, 1])

    def test_harmonic_size_and_bounds(self):
        ts = make_harmonic(10)
        assert len(ts) == 11 and ts.min == 0.0 and ts.max == 1.0
        assert ts.metadata["n_max"] == 10

    def test_harmonic_rejects_bad_n(self):
        for bad in (1, 0, -3, 2.5, True):
            with pytest.raises(InvalidParameter):
                make_harmonic(bad)

    def test_union_spans_scales(self):
        ts = union(make_points([-1.0]), make_uniform(0.0, 2.0, 1.0))
        assert np.allclose(ts.points, [-1, 0, 1, 2])
        assert ts.sigma(-1.0) == 0.0


class TestInvariants:
    def test_jump_composition_bounds(self, rng):
        # oracle: next/prev element of the sorted realized point list
        for _ in range(25):
            ts = random_discrete_scale(rng)
            pts = ts.points
            for i, t in enumerate(pts):
                t = float(t)
                expected_sigma = float(pts[min(i + 1, pts.size - 1)])
                expected_rho = float(pts[max(i - 1, 0)])
                assert ts.sigma(t) == expected_sigma
                assert ts.rho(t) == expected_rho
                assert ts.rho(ts.sigma(t)) <= t <= ts.sigma(ts.rho(t))
                if 0 < i < pts.size - 1:
                    assert ts.rho(ts.sigma(t)) == t == ts.sigma(ts.rho(t))

    def test_mu_nonnegative_and_zero_at_max(self, rng):
        for _ in range(10):
            ts = random_discrete_scale(rng)
            assert all(ts.mu(float(t)) >= 0.0 for t in ts.points)
            assert ts.mu(ts.max) == 0.0

    def test_sigma_monotone(self, rng):
        ts = union(random_discrete_scale(rng, 8), make_dense(40.0, 41.0, 16))
        sig = [ts.sigma(float(t)) for t in ts.points]
        assert all(a <= b for a, b in zip(sig, sig[1:]))

    def test_geometric_closed_forms(self):
        q = 2.0
        ts = make_geometric(1.0, 64.0, q)
        for t in ts.points[:-1]:
            t = float(t)
            assert ts.sigma(t) == q * t
            assert ts.mu(t) == (q - 1.0) * t

    def test_harmonic_graininess_closed_form(self):
        ts = make_harmonic(100)
        for n in range(2, 101):
            t = 1.0 / n
            assert ts.mu(t) == pytest.approx(1.0 / (n * (n - 1)), abs=1e-12)
            assert ts.mu(t) == pytest.approx(t * t / (1.0 - t), abs=1e-12)

    def test_vectorized_helpers_match_scalar_operators(self, rng):
        ts = union(random_discrete_scale(rng, 10), make_dense(50.0, 51.0, 8))
        mu = ts.mu_values()
        sig = ts.sigma_indices()
        for i, t in enumerate(ts.points):
            assert mu[i] == ts.mu(float(t))
            assert ts.points[sig[i]] == ts.sigma(float(t))

    def test_rho_indices_match_the_scalar_operator(self, rng):
        ts = union(make_points([-5.0]), make_dense(-4.0, -3.0, 8), random_discrete_scale(rng, 6))
        rho = ts.rho_indices()
        assert not rho.flags.writeable
        assert [float(ts.points[i]) for i in rho] == [ts.rho(float(t)) for t in ts.points]



# Junk for any argument of a scale constructor. Each builder below draws
# arguments that can build a scale, then swaps each for junk one time in four.
JUNK = st.sampled_from(
    (None, "a", "", "1.5", [[1.0], [1.0, 2.0]], [], (), {}, True, 1j)
    + (math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400)
)
EDGE = st.sampled_from((0.0, 1e300, -1e308, 1e308))
# and the spans whose end - start or maximum / minimum overflows
UNIFORM = st.tuples(st.sampled_from((0, -1.0, 2.5)) | EDGE, st.integers(1, 8), st.sampled_from((0.25, 1, 1e115))).map(
    lambda a: (a[0], a[0] + a[1] * a[2], a[2])
) | st.just((-1e308, 1e308, 1e308))
GEOMETRIC = st.tuples(st.sampled_from((0.5, 1, 1e-3)) | EDGE, st.integers(0, 8), st.sampled_from((1.5, 2, 10, 1e115))).map(
    lambda a: (a[0], a[0] * float(a[2]) ** min(a[1], 2), a[2])
) | st.just((1e-300, 1e300, 1e10))
DENSE = st.tuples(st.sampled_from((0, -1.0)) | EDGE, st.sampled_from((0.5, 1, 1e308)), st.sampled_from((1, 2, 4.0, 8))).map(
    lambda a: (a[0], a[0] + a[1], a[2])
)
POINT = st.sampled_from((0, 1, 2.5, -1.0, 1e-13)) | EDGE
POINTS = st.one_of(
    st.lists(POINT, min_size=1, max_size=6, unique=True).map(sorted),
    st.lists(POINT | JUNK, min_size=1, max_size=3),  # junk as an element
).map(lambda p: (p,))
SEGMENT = st.sampled_from(
    (
        Uniform(0.0, 2.0, 1.0),
        DenseInterval(2.0, 3.0, 4),
        DenseInterval(3.0, 4.0, 4),
        DiscretePoints((3.0,)),
        DiscretePoints((-1e308, -1.0)),
        DiscretePoints((1e308,)),
        Geometric(4.0, 16.0, 2.0),
    )
)
SCALE_BUILDERS = {
    "DiscretePoints": (lambda p: TimeScale([DiscretePoints(p)]), POINTS),
    "Uniform": (lambda *a: TimeScale([Uniform(*a)]), UNIFORM),
    "Geometric": (lambda *a: TimeScale([Geometric(*a)]), GEOMETRIC),
    "DenseInterval": (lambda *a: TimeScale([DenseInterval(*a)]), DENSE),
    "make_points": (make_points, POINTS),
    "make_uniform": (make_uniform, UNIFORM),
    "make_geometric": (make_geometric, GEOMETRIC),
    "make_dense": (make_dense, DENSE),
    "make_harmonic": (make_harmonic, st.tuples(st.sampled_from((2, 3, 10.0, 100)))),
    "TimeScale": (TimeScale, st.tuples(st.lists(SEGMENT, max_size=3), st.sampled_from((None, {"kind": "test"})))),
    "union": (lambda *scales: union(*scales), st.lists(SEGMENT.map(lambda s: TimeScale([s])), max_size=3).map(tuple)),
}


@pytest.mark.parametrize("name", sorted(SCALE_BUILDERS))
@settings(max_examples=150)
@given(data=st.data())
def test_a_scale_constructor_builds_a_scale_or_raises_invalid_parameter(name, data):
    build, valid = SCALE_BUILDERS[name]
    args = [arg if data.draw(st.integers(0, 3)) else data.draw(JUNK) for arg in data.draw(valid)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ts = build(*args)
        except InvalidParameter:
            return
    pts = ts.points
    assert pts.ndim == 1 and pts.size >= 1 and np.isfinite(pts).all()
    assert (np.diff(pts) > 0).all()
    assert np.isfinite(ts.mu_values()).all()
    # every point a segment asked for is a node (the drawn shared endpoints are exact)
    for segment in ts.segments:
        assert np.isin(segment.realize(), pts).all()
