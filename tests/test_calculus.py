"""Delta derivative, delta integral, norms, and the calculus identities."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsvar import (
    AtScaleMaximum,
    DenseInterval,
    DiscretePoints,
    DerivativeKind,
    GridFunction,
    InvalidParameter,
    PointNotInScale,
    ReversedBounds,
    TimeScale,
    Uniform,
    VariationalProblem,
    delta_derivative,
    delta_integral,
    el_residual,
    functional,
    make_dense,
    make_geometric,
    make_harmonic,
    make_points,
    make_uniform,
    norm_strong,
    norm_weak,
    parse_lagrangian,
    union,
)
from tsvar.variational import _LEFT, _RIGHT, _TWO_SIDED, _rows
from conftest import random_discrete_scale


class TestDeltaDerivative:
    def test_integer_window_forward_difference(self):
        ts = make_uniform(0.0, 5.0, 1.0)
        x = GridFunction.from_callable(ts, lambda t: t * t)
        d = delta_derivative(x, 2.0)
        assert d.value == 5.0  # (9 - 4) / 1
        assert d.kind is DerivativeKind.EXACT_SCATTERED

    def test_quantum_derivative(self):
        ts = make_geometric(1.0, 8.0, 2.0)
        x = GridFunction.from_callable(ts, lambda t: t * t)
        assert delta_derivative(x, 1.0).value == 3.0  # (q+1)t at t=1

    def test_constant_has_zero_derivative(self):
        for ts in (make_harmonic(10), make_dense(0.0, 1.0, 10), make_uniform(0, 3, 1)):
            x = GridFunction.from_callable(ts, lambda t: 4.25)
            for t in ts.kappa_points(ts.min, ts.max):
                assert delta_derivative(x, float(t)).value == 0.0

    def test_left_scattered_maximum_rejected(self):
        ts = make_points([0, 1, 2])
        x = GridFunction.zeros(ts)
        with pytest.raises(AtScaleMaximum):
            delta_derivative(x, 2.0)

    def test_dense_interior_second_order(self):
        ts = make_dense(0.0, 1.0, 1000)
        x = GridFunction.from_callable(ts, math.sin)
        worst = max(
            abs(delta_derivative(x, float(t)).value - math.cos(float(t)))
            for t in ts.points
        )
        assert worst <= 2e-6  # includes the one-sided boundary stencils

    def test_dense_approx_kind(self):
        ts = make_dense(0.0, 1.0, 10)
        x = GridFunction.from_callable(ts, lambda t: t)
        assert delta_derivative(x, 0.5).kind is DerivativeKind.DENSE_APPROX
        assert delta_derivative(x, 0.0).kind is DerivativeKind.DENSE_APPROX
        assert delta_derivative(x, 1.0).kind is DerivativeKind.DENSE_APPROX  # left-dense max

    def test_sides_at_a_corner(self):
        ts = make_dense(0.0, 1.0, 10)
        x = GridFunction.from_callable(ts, lambda t: abs(t - 0.5), break_points=(0.5,))
        assert delta_derivative(x, 0.5, side="left").value == pytest.approx(-1.0, abs=1e-12)
        assert delta_derivative(x, 0.5, side="right").value == pytest.approx(1.0, abs=1e-12)
        undefined = delta_derivative(x, 0.5)
        assert undefined.kind is DerivativeKind.UNDEFINED_AT_BREAK
        assert math.isnan(undefined.value)

    def test_side_values_at_scattered_point(self):
        ts = make_points([0.0, 1.0, 3.0])
        x = GridFunction(ts, [0.0, 2.0, 2.0])
        assert delta_derivative(x, 1.0, side="left").value == 2.0
        assert delta_derivative(x, 1.0, side="right").value == 0.0
        assert delta_derivative(x, 1.0).value == 0.0  # forward quotient exists

    def test_bad_side_argument(self):
        ts = make_points([0.0, 1.0, 3.0])
        x = GridFunction.zeros(ts)
        with pytest.raises(InvalidParameter):
            delta_derivative(x, 1.0, side="up")

    @pytest.mark.parametrize("side", [np.array([]), np.array(["right", "left"]), np.array("right"), 1, b"left"])
    def test_a_side_that_is_no_string_is_named(self, side):
        # an array side once raised numpy's ValueError from side == "right"
        x = GridFunction.zeros(make_points([0.0, 1.0, 3.0]))
        with pytest.raises(InvalidParameter, match="^side must be None, 'left' or 'right', got "):
            delta_derivative(x, 1.0, side=side)


class TestDeltaIntegral:
    def test_unit_integrand_counts_steps(self):
        ts = make_points([0, 1, 2, 3, 4])
        g = GridFunction.from_callable(ts, lambda t: 1.0)
        assert delta_integral(g, 0.0, 4.0) == 4.0

    def test_single_step_equals_mu_times_value(self):
        ts = make_harmonic(10)
        g = GridFunction.zeros(ts).with_value_at(1 / 3, 5.0)
        assert delta_integral(g, 1 / 3, 1 / 2) == pytest.approx(5 / 6, abs=1e-12)

    def test_dense_riemann_integral(self):
        ts = make_dense(0.0, 1.0, 1000)
        g = GridFunction.from_callable(ts, lambda t: t)
        assert delta_integral(g, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_empty_range_and_reversed_bounds(self):
        ts = make_points([0, 1, 2])
        g = GridFunction.from_callable(ts, lambda t: 3.0)
        assert delta_integral(g, 1.0, 1.0) == 0.0
        with pytest.raises(ReversedBounds):
            delta_integral(g, 2.0, 0.0)

    def test_mixed_scale(self):
        # {0} step + dense [1, 2]: integral of 1 is mu(0)*1 + (2-1) = 2
        ts = union(make_points([0.0]), make_dense(1.0, 2.0, 100))
        g = GridFunction.from_callable(ts, lambda t: 1.0)
        assert delta_integral(g, 0.0, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_step_identity_random(self, rng):
        for _ in range(50):
            ts = random_discrete_scale(rng)
            g = GridFunction(ts, rng.uniform(-1, 1, len(ts)))
            i = int(rng.integers(0, len(ts) - 1))
            t = float(ts.points[i])
            assert delta_integral(g, t, ts.sigma(t)) == pytest.approx(
                ts.mu(t) * g.value_at(t), abs=1e-15
            )

    def test_additivity(self, rng):
        ts = random_discrete_scale(rng, 20)
        g = GridFunction(ts, rng.uniform(-1, 1, len(ts)))
        c, d, e = float(ts.points[0]), float(ts.points[8]), float(ts.points[19])
        assert delta_integral(g, c, d) + delta_integral(g, d, e) == pytest.approx(
            delta_integral(g, c, e), abs=1e-13
        )

    def test_additivity_with_dense_segment(self):
        ts = union(make_points([-1.0, -0.5]), make_dense(0.0, 1.0, 1000))
        g = GridFunction.from_callable(ts, lambda t: math.cos(t))
        split = float(ts.points[len(ts) // 2])
        total = delta_integral(g, -1.0, 1.0)
        assert delta_integral(g, -1.0, split) + delta_integral(g, split, 1.0) == pytest.approx(
            total, abs=1e-9
        )

    def test_fundamental_theorem_discrete(self, rng):
        for _ in range(20):
            ts = random_discrete_scale(rng)
            F = GridFunction(ts, rng.uniform(-1, 1, len(ts)))
            deriv = np.zeros(len(ts))
            for i in range(len(ts) - 1):
                deriv[i] = delta_derivative(F, float(ts.points[i])).value
            g = GridFunction(ts, deriv)
            c, d = ts.min, ts.max
            assert delta_integral(g, c, d) == pytest.approx(
                F.value_at(d) - F.value_at(c), abs=1e-12
            )

    def test_fundamental_theorem_dense(self):
        ts = make_dense(0.0, 1.0, 1000)
        F = GridFunction.from_callable(ts, math.sin)
        g = GridFunction(
            ts, [delta_derivative(F, float(t)).value for t in ts.points]
        )
        assert delta_integral(g, 0.0, 1.0) == pytest.approx(math.sin(1.0), abs=1e-6)


class TestDifferentiationRules:
    def test_product_rule_both_forms(self, rng):
        for _ in range(50):
            ts = random_discrete_scale(rng, 12)
            f = GridFunction(ts, rng.uniform(-1, 1, len(ts)))
            g = GridFunction(ts, rng.uniform(-1, 1, len(ts)))
            fg = GridFunction(ts, f.values * g.values)
            sigma = ts.sigma_indices()
            for i, t in enumerate(ts.points[:-1]):
                t = float(t)
                lhs = delta_derivative(fg, t).value
                fd = delta_derivative(f, t).value
                gd = delta_derivative(g, t).value
                assert lhs == pytest.approx(fd * g.values[sigma[i]] + f.value_at(t) * gd, abs=1e-12)
                assert lhs == pytest.approx(fd * g.value_at(t) + f.values[sigma[i]] * gd, abs=1e-12)

    def test_quotient_rule(self, rng):
        for _ in range(50):
            ts = random_discrete_scale(rng, 12)
            f = GridFunction(ts, rng.uniform(-1, 1, len(ts)))
            gv = rng.uniform(0.5, 1.5, len(ts)) * rng.choice([-1.0, 1.0], len(ts))
            g = GridFunction(ts, gv)
            quot = GridFunction(ts, f.values / g.values)
            sigma = ts.sigma_indices()
            for i, t in enumerate(ts.points[:-1]):
                t = float(t)
                fd = delta_derivative(f, t).value
                gd = delta_derivative(g, t).value
                expected = (fd * g.value_at(t) - f.value_at(t) * gd) / (
                    g.value_at(t) * g.values[sigma[i]]
                )
                assert delta_derivative(quot, t).value == pytest.approx(expected, abs=1e-12)

    def test_integration_by_parts_both_forms(self, rng):
        for _ in range(50):
            ts = random_discrete_scale(rng, 15)
            f = GridFunction(ts, rng.uniform(-1, 1, len(ts)))
            g = GridFunction(ts, rng.uniform(-1, 1, len(ts)))
            c, d = ts.min, ts.max
            n = len(ts)
            fd = np.array([delta_derivative(f, float(t)).value for t in ts.points[:-1]] + [0.0])
            gd = np.array([delta_derivative(g, float(t)).value for t in ts.points[:-1]] + [0.0])
            f_sig = f.values[np.minimum(np.arange(n) + 1, n - 1)]
            g_sig = g.values[np.minimum(np.arange(n) + 1, n - 1)]
            boundary = f.value_at(d) * g.value_at(d) - f.value_at(c) * g.value_at(c)
            lhs1 = delta_integral(GridFunction(ts, f_sig * gd), c, d)
            rhs1 = boundary - delta_integral(GridFunction(ts, fd * g.values), c, d)
            assert lhs1 == pytest.approx(rhs1, abs=1e-12)
            lhs2 = delta_integral(GridFunction(ts, f.values * gd), c, d)
            rhs2 = boundary - delta_integral(GridFunction(ts, fd * g_sig), c, d)
            assert lhs2 == pytest.approx(rhs2, abs=1e-12)


class TestNorms:
    def test_spike_strong_norm_is_height(self, harmonic_problem):
        from tsvar import spike_perturbation

        for d in (1.0, -0.25, 3.5):
            spike = spike_perturbation(
                harmonic_problem, harmonic_problem.zero_trajectory(), 1 / 3, d
            )
            assert norm_strong(spike, 0.0, 1.0) == abs(d)

    def test_zero_norms(self):
        ts = make_harmonic(10)
        zero = GridFunction.zeros(ts)
        assert norm_strong(zero, 0.0, 1.0) == 0.0
        assert norm_weak(zero, 0.0, 1.0) == 0.0

    def test_strong_norm_enumerates_shifted_values(self):
        ts = make_points([0, 1, 2])
        x = GridFunction(ts, [0.0, -3.0, 2.0])
        assert norm_strong(x, 0.0, 2.0) == 3.0

    def test_spike_weak_norm(self, harmonic_problem):
        from tsvar import spike_perturbation

        spike = spike_perturbation(
            harmonic_problem, harmonic_problem.zero_trajectory(), 1 / 3, 1.0
        )
        assert norm_weak(spike, 0.0, 1.0) == pytest.approx(7.0, abs=1e-12)

    def test_linear_on_integer_window(self):
        ts = make_uniform(0.0, 4.0, 1.0)
        x = GridFunction.from_callable(ts, lambda t: t)
        assert norm_strong(x, 0.0, 4.0) == 4.0
        assert norm_weak(x, 0.0, 4.0) == 5.0

    def test_weak_dominates_strong(self, rng):
        for _ in range(20):
            ts = random_discrete_scale(rng)
            x = GridFunction(ts, rng.uniform(-2, 2, len(ts)))
            assert norm_weak(x, ts.min, ts.max) >= norm_strong(x, ts.min, ts.max)

    def test_weak_norm_skips_dense_breaks(self):
        ts = make_dense(0.0, 1.0, 10)
        x = GridFunction.from_callable(ts, lambda t: abs(t - 0.5), break_points=(0.5,))
        assert math.isfinite(norm_weak(x, 0.0, 1.0))


class TestGridFunctionValidation:
    def test_length_mismatch(self):
        with pytest.raises(InvalidParameter):
            GridFunction(make_points([0, 1, 2]), [1.0, 2.0])

    def test_values_must_be_finite(self):
        with pytest.raises(InvalidParameter):
            GridFunction(make_points([0, 1]), [1.0, math.nan])
        with pytest.raises(InvalidParameter):
            GridFunction(make_points([0, 1]), [1.0, math.inf])

    def test_breaks_must_be_scale_points(self):
        with pytest.raises(PointNotInScale):
            GridFunction(make_points([0, 1, 2]), [0.0, 0.0, 0.0], break_points=(0.5,))

    @pytest.mark.parametrize("t", ["a", None, True, math.nan])
    @pytest.mark.parametrize(
        "read",
        [
            lambda x, t: x.value_at(t),
            lambda x, t: delta_integral(x, t, 2.0),
            lambda x, t: delta_integral(x, 0.0, t),
            lambda x, t: norm_strong(x, t, 2.0),
            lambda x, t: norm_weak(x, 0.0, t),
            lambda x, t: delta_derivative(x, t),
        ],
    )
    def test_a_t_that_is_not_a_finite_real_number_is_not_in_the_scale(self, read, t):
        x = GridFunction(make_points([0, 1, 2]), [0.0, 1.0, 3.0])
        with pytest.raises(PointNotInScale):
            read(x, t)

    def test_values_read_only(self):
        x = GridFunction(make_points([0, 1]), [1.0, 2.0])
        with pytest.raises(ValueError):
            x.values[0] = 9.0

    @pytest.mark.parametrize(
        "values",
        [["a"] * 3, ["0"] * 3, [b"0"] * 3, [1j] * 3, [None] * 3, [[0.0], [1.0, 2.0], [3.0]], np.zeros((3, 1)), []],
        ids=["text", "numeric text", "bytes", "complex", "None", "ragged", "2-d", "empty"],
    )
    def test_values_that_are_not_a_sequence_of_numbers_are_rejected(self, values):
        # text and ragged lists raised numpy's ValueError, complex a TypeError; "0" was read as 0.0
        with pytest.raises(InvalidParameter, match="^grid values must be a sequence of numbers$"):
            GridFunction(make_points([0, 1, 2]), values)

    @pytest.mark.parametrize("value", ["a", 1j, None])
    def test_a_callable_that_gives_no_number_is_rejected(self, value):
        with pytest.raises(InvalidParameter, match="sequence of numbers"):
            GridFunction.from_callable(make_points([0, 1, 2]), lambda t: value)

    @pytest.mark.parametrize("scale", ["abcd", [0.0, 1.0, 2.0, 3.0], None, 4])
    def test_the_scale_must_be_a_time_scale(self, scale):
        with pytest.raises(InvalidParameter, match="^a grid function needs a TimeScale"):
            GridFunction(scale, [0.0] * 4)
        with pytest.raises(InvalidParameter, match="^a grid function needs a TimeScale"):
            GridFunction.from_callable(scale, lambda t: 0.0)

    @pytest.mark.parametrize("breaks", [0.5, None, 1j])
    def test_break_points_that_are_not_a_sequence_are_rejected(self, breaks):
        with pytest.raises(InvalidParameter, match="^break_points must be a sequence"):
            GridFunction(make_points([0, 1, 2]), [0.0] * 3, break_points=breaks)

    def test_length_and_finiteness_messages(self):
        ts = make_points([0, 1, 2])
        with pytest.raises(InvalidParameter, match=re.escape("expected 3 values (one per scale point), got (2,)")):
            GridFunction(ts, [1.0, 2.0])
        with pytest.raises(InvalidParameter, match="^grid values must all be finite$"):
            GridFunction(ts, [1.0, math.inf, 0.0])

    def test_real_numbers_of_every_kind_are_read_as_floats(self):
        x = GridFunction(make_points([0, 1, 2]), [True, np.int8(-3), 2**70])
        assert x.values.dtype == np.float64 and x.values.tolist() == [1.0, -3.0, 2.0**70]

    def test_the_grid_keeps_its_own_copy(self):
        values = np.array([1.0, 2.0])
        x = GridFunction(make_points([0, 1]), values)
        values[0] = 9.0
        assert x.values.tolist() == [1.0, 2.0]
        assert values.flags.writeable

    def test_grid_functions_compare_by_identity(self):
        # value equality raised numpy's "truth value of an array is ambiguous", and hash a TypeError
        ts = make_points([0, 1, 2])
        a, b = GridFunction.zeros(ts), GridFunction.zeros(ts)
        assert a == a and a != b
        assert len({a, b, a}) == 2


# -- the slope table against a per-node reference ----------------------------------


@st.composite
def mixed_scales(draw):
    """Dense, uniform, harmonic and random-point segments, some sharing endpoints.

    Widths, counts and gaps come from small sets, so that a segment often
    continues its neighbour's step exactly, or misses it by a little.
    """
    segments, lo = [], draw(st.sampled_from((-1.0, 0.0, 0.5)))
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.sampled_from((1.0, 2.0)))
        hi = lo + width * draw(st.sampled_from((1.0, 1.0 + 1e-12, 1.0 + 1e-7)))
        count = draw(st.sampled_from((2, 4, 8)))
        kind = draw(st.sampled_from(("dense", "dense", "uniform", "harmonic", "random")))
        if kind == "dense":
            segments.append(DenseInterval(lo, hi, count))
        elif kind == "uniform":
            segments.append(Uniform(lo, hi, (hi - lo) / count))
        elif kind == "harmonic":
            segments.append(DiscretePoints([lo] + [lo + (hi - lo) / n for n in range(count, 0, -1)]))
        else:
            inner = draw(st.sets(st.integers(1, 19), min_size=1, max_size=count))
            segments.append(DiscretePoints([lo] + [lo + (hi - lo) * k / 20 for k in sorted(inner)] + [hi]))
        lo = hi if draw(st.booleans()) else hi + draw(st.sampled_from((0.25, 0.5)))
    return TimeScale(segments)


def reference_slope(pts, v, rd, ld, mu, breaks, i, side):
    """x^Delta at node i by the stencil rules, one node at a time."""
    if side is None:
        if i in breaks and mu[i] == 0.0:
            return math.nan  # a registered break that is not right-scattered
        if rd[i] and ld[i]:
            return (v[i + 1] - v[i - 1]) / (pts[i + 1] - pts[i - 1])
        side = "left" if i == len(pts) - 1 else "right"
    step = 1 if side == "right" else -1
    dense = rd if side == "right" else ld
    j1, j2 = i + step, i + 2 * step
    h = pts[j1] - pts[i]
    if dense[i] and dense[j1] and abs(pts[j2] - pts[j1] - h) <= 1e-9 * abs(h):
        return (-3.0 * v[i] + 4.0 * v[j1] - v[j2]) / (2.0 * h)
    return (v[j1] - v[i]) / h


def assert_bitwise(got, want):
    want = np.array(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@settings(max_examples=200)
@given(ts=mixed_scales(), data=st.data())
def test_slopes_and_one_sided_follow_the_stencil_rules(ts, data):
    n = len(ts)
    v = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    brk = data.draw(st.sets(st.integers(0, n - 1), max_size=4))
    x = GridFunction(ts, v, break_points=tuple(float(ts.points[i]) for i in brk))
    pts, rd, ld, mu = (
        a.tolist() for a in (ts.points, ts.right_dense_mask, ts.left_dense_mask, ts.mu_values())
    )

    def want(nodes, side):
        return [reference_slope(pts, v, rd, ld, mu, brk, i, side) for i in nodes]

    nodes = np.arange(n)
    right, left = x.one_sided(nodes, 1), x.one_sided(nodes, -1)
    assert_bitwise(x.slopes, want(range(n), None))
    assert_bitwise(right[:-1], want(range(n - 1), "right"))
    assert_bitwise(left[1:], want(range(1, n), "left"))
    for column in (x.slopes, right, left):
        assert column.dtype == np.float64 and column.shape == (n,)
    with pytest.raises(ValueError):
        x.slopes[0] = 0.0


def test_second_order_slopes_of_values_near_the_float_range_do_not_overflow():
    # -3v + 4v1 - v2 overflows for |v| above about 4.5e307; the slopes of
    # 2^1022 y are still 2^1022 times those of y
    ts = union(make_points([-1.0]), make_dense(0.0, 1.0, 16), make_uniform(1.0, 2.0, 0.25))
    y = GridFunction(ts, 1.0 + ts.points**2 / 4.0)  # values in [1, 2], slopes at most 1
    big = GridFunction(ts, 2.0**1022 * y.values)
    nodes = np.arange(len(ts))
    for rule in (lambda g: g.slopes, lambda g: g.one_sided(nodes, 1), lambda g: g.one_sided(nodes, -1)):
        np.testing.assert_allclose(rule(big), 2.0**1022 * rule(y), rtol=1e-12)
    assert norm_weak(big, -1.0, 2.0) == pytest.approx(2.0**1022 * norm_weak(y, -1.0, 2.0), rel=1e-12)


# -- each slope rule runs only where something reads it ---------------------------


def test_readers_of_x_delta_run_the_one_sided_rule_only_where_they_use_it():
    # dense [0, 1] (8 panels) then uniform (1, 3] step 1/2; breaks at 0.5 (dense) and 2.0
    ts = union(make_dense(0.0, 1.0, 8), make_uniform(1.0, 3.0, 0.5))
    x = GridFunction(ts, np.sin(3.0 * ts.points), break_points=(0.5, 2.0))
    index = {t: ts.index_of(t) for t in (0.5, 1.0, 2.0)}
    calls = []
    one_sided = GridFunction.one_sided

    def spy(grid, nodes, step):
        calls.append((step, tuple(np.asarray(nodes).tolist())))
        return one_sided(grid, nodes, step)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GridFunction, "one_sided", spy)
        problem = VariationalProblem(ts, 0.0, 3.0, parse_lagrangian("r^2 + sin(x)"), 0.0, 0.0)
        functional(problem, x)
        norm_weak(x, 0.0, 3.0)
        el_residual(problem, x)
        assert sorted(calls) == sorted([
            (1, (0,)),  # the start of the dense run
            (-1, (len(ts) - 1,)),  # the scale maximum
            (1, (index[0.5], index[2.0])),  # the breaks
            (-1, (index[0.5], index[1.0])),  # LEFT rows: a dense break, a dense run end
        ])
        calls.clear()
        delta_derivative(x, 2.0, side="left")
        assert calls == [(-1, (index[2.0],))]


@settings(max_examples=150)
@given(ts=mixed_scales(), data=st.data())
def test_sample_row_slopes_follow_the_rule_their_kind_names(ts, data):
    n = len(ts)
    v = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    brk = data.draw(st.sets(st.integers(0, n - 1), max_size=4))
    i0 = data.draw(st.integers(0, n - 2))
    i1 = data.draw(st.integers(i0 + 1, n - 1))
    x = GridFunction(ts, v, break_points=tuple(float(ts.points[i]) for i in brk))
    pts, rd, ld, mu = (
        a.tolist() for a in (ts.points, ts.right_dense_mask, ts.left_dense_mask, ts.mu_values())
    )
    problem = VariationalProblem(
        ts, pts[i0], pts[i1], parse_lagrangian("r^2 + sin(x)"), v[i0], v[i1]
    )
    t, _, r, kind, _ = _rows(problem, x)
    side = {_TWO_SIDED: None, _LEFT: "left", _RIGHT: "right"}
    nodes = np.searchsorted(ts.points, t).tolist()
    want = [
        reference_slope(pts, v, rd, ld, mu, brk, i, side[k]) for i, k in zip(nodes, kind.tolist())
    ]
    assert_bitwise(r, want)
