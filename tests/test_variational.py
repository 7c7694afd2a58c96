"""Functional evaluation, Euler-Lagrange residual/solver, and spike machinery."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from tsvar import (
    DomainError,
    EmptyInterval,
    ExpressionSyntaxError,
    GridFunction,
    InsufficientPoints,
    InvalidParameter,
    InvalidSpikeLocation,
    NonConvergence,
    NonDifferentiablePoint,
    PointNotInScale,
    VariationalProblem,
    check_convexity_condition,
    classify_candidate,
    delta_derivative,
    el_residual,
    find_spike_below,
    functional,
    is_admissible,
    make_dense,
    make_geometric,
    make_harmonic,
    make_points,
    make_uniform,
    parse_lagrangian,
    norm_strong,
    norm_weak,
    random_bounded_slope_trajectory,
    solve_el_discrete,
    spike_perturbation,
    union,
    weierstrass_scan,
)
from tsvar import variational
from tsvar.expressions import Lagrangian
from tsvar.variational import _newton_step, _rows, _window_state
from conftest import SMOOTH_TEMPLATES, random_discrete_scale


def quadratic_problem():
    return VariationalProblem(
        make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2"), 0.0, 4.0
    )


class TestProblemConstruction:
    def test_endpoints_must_be_in_scale(self):
        with pytest.raises(PointNotInScale):
            VariationalProblem(make_points([0, 1, 2]), 0.0, 1.5, parse_lagrangian("r^2"), 0, 0)

    def test_requires_increasing_endpoints(self):
        with pytest.raises(EmptyInterval):
            VariationalProblem(make_points([0, 1, 2]), 2.0, 0.0, parse_lagrangian("r^2"), 0, 0)

    def test_window_collapsing_to_one_node_is_rejected(self):
        # t1 lies within the point tolerance of t0, so both snap to the node 0
        with pytest.raises(EmptyInterval, match="same scale point"):
            VariationalProblem(make_points([0, 1, 2]), 0.0, 1e-13, parse_lagrangian("r^2"), 0, 0)

    @pytest.mark.parametrize(
        "field, value",
        [("scale", np.array([0.0, 1.0, 2.0])), ("scale", None), ("lagrangian", "r^2"), ("lagrangian", None)],
    )
    def test_a_scale_or_lagrangian_of_another_type_is_named(self, field, value):
        # a string Lagrangian failed later on 'str' object has no attribute 'eval'; an array scale on index_of
        args = {"scale": make_points([0, 1, 2]), "lagrangian": parse_lagrangian("r^2"), field: value}
        kind = {"scale": "TimeScale", "lagrangian": "Lagrangian"}[field]
        message = f"^VariationalProblem {field} must be a {kind}, not {type(value).__name__}$"
        with pytest.raises(InvalidParameter, match=message):
            VariationalProblem(t0=0.0, t1=2.0, alpha=0.0, beta=1.0, **args)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "a", None, True, 10**400])
    @pytest.mark.parametrize("field", ["t0", "t1", "alpha", "beta"])
    def test_a_field_that_is_not_a_finite_number_is_named(self, field, value):
        # with alpha = NaN, |x(t0) - alpha| > tol is False, so any x passed the left boundary
        args = {"t0": 0.0, "t1": 2.0, "alpha": 0.0, "beta": 1.0, field: value}
        with pytest.raises(InvalidParameter, match=f"^VariationalProblem {field} must be a finite number$"):
            VariationalProblem(make_points([0, 1, 2]), lagrangian=parse_lagrangian("r^2"), **args)


class TestAdmissibility:
    def test_zero_trajectory(self, harmonic_problem):
        assert is_admissible(harmonic_problem, harmonic_problem.zero_trajectory())

    def test_spike_is_admissible(self, harmonic_problem):
        spike = spike_perturbation(
            harmonic_problem, harmonic_problem.zero_trajectory(), 1 / 3, 1.0
        )
        assert is_admissible(harmonic_problem, spike)

    def test_constant_one_fails_left_boundary(self, harmonic_problem):
        ones = GridFunction.from_callable(harmonic_problem.scale, lambda t: 1.0)
        result = is_admissible(harmonic_problem, ones)
        assert not result
        assert any("left boundary" in r for r in result.reasons)


class TestFunctional:
    def test_zero_trajectory_is_exactly_zero(self, harmonic_problem):
        assert functional(harmonic_problem, harmonic_problem.zero_trajectory()) == 0.0

    def test_spike_value_matches_hand_sum(self, harmonic_problem):
        ts = harmonic_problem.scale
        zero = harmonic_problem.zero_trajectory()
        spike = spike_perturbation(harmonic_problem, zero, 1 / 3, 1.0)
        value = functional(harmonic_problem, spike)
        # oracle: the two-term mu-weighted sum, evaluated directly
        mu0, mu1 = ts.mu(1 / 3), ts.mu(1 / 2)
        oracle = mu0 * ((1 / mu0) ** 2 - (1 / mu0) ** 4) + mu1 * ((1 / mu1) ** 2 - (1 / mu1) ** 4)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(-216.0, abs=1e-9)

    def test_linear_on_integer_window(self):
        P = quadratic_problem()
        x = GridFunction.from_callable(P.scale, lambda t: t)
        assert functional(P, x) == 4.0  # four unit steps of slope 1

    def test_uses_sigma_shifted_values(self):
        # f = x picks up x(sigma(t)); the last step contributes beta
        P = VariationalProblem(make_points([0, 1, 2]), 0.0, 2.0, parse_lagrangian("x"), 0.0, 7.0)
        x = GridFunction(P.scale, [0.0, 3.0, 7.0])
        assert functional(P, x) == 10.0  # x(1) + x(2)

    def test_dense_scale_matches_riemann_integral(self):
        P = VariationalProblem(
            make_dense(0.0, 1.0, 1000), 0.0, 1.0, parse_lagrangian("r^2 + x"), 0.0, 1.0
        )
        x = GridFunction.from_callable(P.scale, lambda t: t)
        # integral of 1 + t dt over [0, 1] = 1.5
        assert functional(P, x) == pytest.approx(1.5, abs=1e-6)

    @pytest.mark.parametrize("res", [10, 100, 1000])
    def test_trapezoid_closes_each_panel_at_a_dense_break_with_its_own_slope(self, res):
        # f = r integrates x^Delta, so L = x(1) - x(0) = 0 for x = |t - 1/2|;
        # a single slope for both panels next to the corner would give h
        ts = make_dense(0.0, 1.0, res)
        P = VariationalProblem(ts, 0.0, 1.0, parse_lagrangian("r"), 0.5, 0.5)
        x = GridFunction.from_callable(ts, lambda t: abs(t - 0.5), break_points=(0.5,))
        assert abs(functional(P, x)) <= 1e-12

    def test_invariant_under_removable_break_registration(self, rng):
        ts = random_discrete_scale(rng, 12)
        P = VariationalProblem(
            ts, ts.min, ts.max, parse_lagrangian("r^2 - r^4 + x*r"), 0.0, 0.0
        )
        vals = rng.uniform(-1, 1, len(ts))
        vals[0] = vals[-1] = 0.0
        x = GridFunction(ts, vals)
        marked = GridFunction(ts, vals, (float(ts.points[4]),))
        assert functional(P, x) == functional(P, marked)


READS_A_TRAJECTORY = {
    "functional": functional,
    "el_residual": el_residual,
    "is_admissible": is_admissible,
    "weierstrass_scan": lambda P, x: weierstrass_scan(P, x, [1.0]),
    "classify_candidate": classify_candidate,
    "solve_el_discrete": lambda P, x: solve_el_discrete(P, x_init=x),
    "spike_perturbation": lambda P, x: spike_perturbation(P, x, 1 / 3, 1.0),
}

# each takes a zero trajectory and the problem's other arguments
READS_A_PROBLEM = {
    **{name: read for name, read in READS_A_TRAJECTORY.items() if name != "solve_el_discrete"},
    "solve_el_discrete": lambda P, x: solve_el_discrete(P),
    "find_spike_below": lambda P, x: find_spike_below(P, 0.5),
    "random_bounded_slope_trajectory": lambda P, x: random_bounded_slope_trajectory(P, np.random.default_rng(0)),
    "check_convexity_condition": lambda P, x: check_convexity_condition(P, [0.0], [0.0, 1.0], [0.5]),
}


@pytest.mark.parametrize("read", READS_A_PROBLEM.values(), ids=READS_A_PROBLEM.keys())
def test_a_problem_that_is_not_a_variational_problem_is_named(harmonic_problem, read):
    # these raised AttributeError: 'str' object has no attribute 'scale', 'window' or 'lagrangian'
    x = harmonic_problem.zero_trajectory()
    with pytest.raises(InvalidParameter, match="^problem must be a VariationalProblem, not str$"):
        read("P", x)


class TestTrajectoryScale:
    @pytest.mark.parametrize("junk", ["x", np.zeros(51), 0.0], ids=["str", "ndarray", "float"])
    @pytest.mark.parametrize("read", READS_A_TRAJECTORY.values(), ids=READS_A_TRAJECTORY.keys())
    def test_a_trajectory_that_is_not_a_grid_function_is_named(self, harmonic_problem, read, junk):
        # these raised AttributeError: no attribute 'sample_rows', 'value_at' or 'scale'
        message = f"^the trajectory must be a GridFunction, not {type(junk).__name__}$"
        with pytest.raises(InvalidParameter, match=message):
            read(harmonic_problem, junk)

    @pytest.mark.parametrize("read", [is_admissible, classify_candidate, functional])
    def test_a_missing_trajectory_is_named(self, harmonic_problem, read):
        with pytest.raises(InvalidParameter, match="^the trajectory must be a GridFunction, not NoneType$"):
            read(harmonic_problem, None)

    @pytest.mark.parametrize("n_max", [10, 80])
    def test_a_trajectory_on_another_scale_is_rejected(self, harmonic_problem, n_max):
        # harmonic(10) once failed to broadcast; harmonic(80) silently gave L = 0
        x = GridFunction.zeros(make_harmonic(n_max))
        with pytest.raises(InvalidParameter, match="another scale"):
            functional(harmonic_problem, x)

    def test_a_spike_on_another_scale_is_rejected(self):
        # the base once came back on its own 21-point scale, the spike put at a point of the problem's 11
        P = VariationalProblem(make_harmonic(10), 0.0, 1.0, parse_lagrangian("r^2 - r^4"), 0.0, 0.0)
        with pytest.raises(InvalidParameter, match="another scale"):
            spike_perturbation(P, GridFunction.zeros(make_harmonic(20)), 1 / 3, 1.0)

    def test_classification_rejects_it_too(self, harmonic_problem):
        # it once reported 1,600 violations computed on the wrong points
        x = GridFunction.zeros(make_harmonic(80))
        with pytest.raises(InvalidParameter, match="another scale"):
            classify_candidate(harmonic_problem, x)

    def test_other_dense_masks_are_rejected(self):
        # the same points, once dense and once discrete
        dense = make_dense(0.0, 1.0, 4)
        P = VariationalProblem(dense, 0.0, 1.0, parse_lagrangian("r^2"), 0.0, 0.0)
        x = GridFunction.zeros(make_points(dense.points))
        with pytest.raises(InvalidParameter, match="another scale"):
            functional(P, x)

    def test_an_equal_but_distinct_scale_is_accepted(self, harmonic_problem):
        values = [t * (1.0 - t) for t in harmonic_problem.scale.points]
        own = GridFunction(harmonic_problem.scale, values)
        twin = GridFunction(make_harmonic(50), values)
        assert functional(harmonic_problem, twin) == functional(harmonic_problem, own)
        assert classify_candidate(harmonic_problem, twin) == classify_candidate(harmonic_problem, own)


class TestSampleRows:
    def test_rows_are_built_once_and_read_only(self, harmonic_problem, monkeypatch):
        builds = []
        build = variational._build_rows
        monkeypatch.setattr(variational, "_build_rows", lambda P, x: builds.append(1) or build(P, x))
        x = GridFunction.from_callable(harmonic_problem.scale, lambda t: t * (1.0 - t))
        first = _rows(harmonic_problem, x)
        second = _rows(harmonic_problem, x)
        assert len(builds) == 1 and all(a is b for a, b in zip(first, second))
        for column in second:
            with pytest.raises(ValueError):
                column[0] = column[0]

    def test_another_window_or_scale_object_gets_its_own_rows(self, harmonic_problem):
        ts = harmonic_problem.scale
        x = GridFunction.from_callable(ts, lambda t: t * (1.0 - t))
        whole = _rows(harmonic_problem, x)
        half = VariationalProblem(ts, 0.0, 0.5, harmonic_problem.lagrangian, 0.0, x(0.5))
        part = _rows(half, x)
        # the rows of [0, 1/2) are the first rows of [0, 1)
        assert part[0].size < whole[0].size and np.array_equal(part[0], whole[0][: part[0].size])
        twin = VariationalProblem(make_harmonic(50), 0.0, 1.0, harmonic_problem.lagrangian, 0.0, 0.0)
        same = _rows(twin, x)
        assert all(a is not b and np.array_equal(a, b) for a, b in zip(same, whole))
        other = VariationalProblem(make_harmonic(80), 0.0, 1.0, harmonic_problem.lagrangian, 0.0, 0.0)
        with pytest.raises(InvalidParameter, match="another scale"):
            _rows(other, x)
        assert _rows(harmonic_problem, x)[0] is whole[0]


class TestElResidual:
    def test_linear_extremal_of_quadratic(self):
        P = quadratic_problem()
        x = GridFunction.from_callable(P.scale, lambda t: t)
        res = el_residual(P, x)
        assert np.allclose(res.values, 0.0, atol=1e-14)
        assert np.allclose(res.scale.points, [0, 1, 2])  # all points except the last two

    def test_kink_shows_at_predecessor(self):
        P = quadratic_problem()
        x = GridFunction.from_callable(P.scale, lambda t: abs(t - 2.0))
        res = el_residual(P, x)
        assert res.value_at(0.0) == 0.0
        assert res.value_at(1.0) != 0.0  # forward difference of the jump in f_r
        assert res.value_at(2.0) == 0.0

    def test_integrand_without_x_or_slope(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("t"), 0.0, 0.0
        )
        res = el_residual(P, P.zero_trajectory())
        assert np.allclose(res.values, 0.0)

    def test_a_residual_beyond_the_float_range_is_a_domain_error(self):
        # f_r = 2e308 r is finite at r = -0.5 and 0.5, but its difference is not
        P = VariationalProblem(make_uniform(0.0, 1.0, 0.5), 0.0, 1.0, parse_lagrangian("1e308*r^2"), 0, 0)
        x = GridFunction(P.scale, [0.0, -0.25, 0.0])
        with pytest.raises(DomainError, match="overflow in the Euler-Lagrange residual of '1e308[*]r\\^2'"):
            el_residual(P, x)

    def test_needs_three_points(self):
        P = VariationalProblem(make_points([0, 1]), 0.0, 1.0, parse_lagrangian("r^2"), 0, 1)
        with pytest.raises(InsufficientPoints):
            el_residual(P, P.linear_trajectory())

    def test_classify_reads_the_residual_without_building_its_scale(self, monkeypatch):
        P = VariationalProblem(make_harmonic(150), 0.0, 1.0, parse_lagrangian("0.7368*r^2 + 0.8211*x^2"), 0, 0)
        x = GridFunction.from_callable(P.scale, lambda t: np.sin(3.0 * t))
        res = el_residual(P, x)

        def no_scale(points):
            raise AssertionError("classify_candidate built a scale")

        monkeypatch.setattr(variational, "make_points", no_scale)
        assert classify_candidate(P, x).el_max_residual == float(np.max(np.abs(res.values)))
        t, values = variational._el_residual(P, x)
        assert np.array_equal(t, res.scale.points) and values.tobytes() == res.values.tobytes()


class TestSolver:
    def test_integer_window_quadratic(self):
        P = quadratic_problem()
        result = solve_el_discrete(P, x_init=GridFunction(P.scale, [0.0, 5.0, -2.0, 1.0, 4.0]))
        assert result.converged
        assert result.residual_max <= 1e-10
        assert np.allclose(result.trajectory.values, [0, 1, 2, 3, 4], atol=1e-10)

    def test_matches_tridiagonal_linear_oracle(self, rng):
        # for f = r^2 the EL system is linear: solve it directly and compare
        ts = random_discrete_scale(rng, 12)
        alpha, beta = -1.0, 2.0
        P = VariationalProblem(ts, ts.min, ts.max, parse_lagrangian("r^2"), alpha, beta)
        pts = ts.points
        mu = np.diff(pts)
        n = len(ts)
        A = np.zeros((n - 2, n - 2))
        b = np.zeros(n - 2)
        for i in range(n - 2):
            # (x[i+2] - x[i+1]) / mu[i+1] - (x[i+1] - x[i]) / mu[i] = 0
            if i > 0:
                A[i, i - 1] += 1.0 / mu[i]
            A[i, i] += -1.0 / mu[i + 1] - 1.0 / mu[i]
            if i + 1 < n - 2:
                A[i, i + 1] += 1.0 / mu[i + 1]
            if i == 0:
                b[i] = -alpha / mu[i]
            if i == n - 3:
                b[i] += -beta / mu[i + 1]
        oracle = np.linalg.solve(A, b)
        result = solve_el_discrete(P)
        assert np.allclose(result.trajectory.values[1:-1], oracle, atol=1e-9)

    def test_harmonic_quadratic_constant_slope(self):
        P = VariationalProblem(make_harmonic(30), 0.0, 1.0, parse_lagrangian("r^2"), 0.0, 1.0)
        result = solve_el_discrete(P)
        assert np.allclose(result.trajectory.values, P.scale.points, atol=1e-9)
        slopes = [
            delta_derivative(result.trajectory, float(t)).value
            for t in P.scale.kappa_points(0.0, 1.0)
        ]
        assert np.allclose(slopes, 1.0, atol=1e-9)

    def test_zero_extremal(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2 + x*0"), 0.0, 0.0
        )
        result = solve_el_discrete(P)
        assert np.allclose(result.trajectory.values, 0.0, atol=1e-12)

    def test_state_coupled_recurrence_oracle(self):
        # f = r^2 + x^2 on {0..4}: EL gives x[i+2] = 3 x[i+1] - x[i]
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2 + x^2"), 0.0, 1.0
        )
        result = solve_el_discrete(P)
        a = 1.0 / 21.0
        assert np.allclose(result.trajectory.values, [0.0, a, 3 * a, 8 * a, 21 * a], atol=1e-9)
        assert result.residual_max <= 1e-10

    def test_genuinely_nonlinear_converges(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2 + exp(x)"), 0.0, 1.0
        )
        result = solve_el_discrete(P)
        assert result.residual_max <= 1e-10
        res = el_residual(P, result.trajectory)
        assert np.max(np.abs(res.values)) <= 1e-10

    def test_dual_jacobian_matches_finite_differences(self):
        # the Jacobian of the residual R is -H / mu row by row, H the Hessian of L
        lagr = parse_lagrangian("r^2 + exp(x) + t*x*r")
        pts = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        xv = np.array([0.0, 0.3, -0.2, 0.7, 1.0])
        h = 1e-7
        _, _, _, diag, off = _window_state(lagr, pts, np.diff(pts), xv)
        jacobian = -_dense(diag, off) / np.diff(pts)[:-1, None]
        for j in range(1, 4):
            bumped = xv.copy()
            bumped[j] = xv[j] + h
            f1 = _window_state(lagr, pts, np.diff(pts), bumped)[2]
            bumped[j] = xv[j] - h
            f0 = _window_state(lagr, pts, np.diff(pts), bumped)[2]
            fd = (f1 - f0) / (2 * h)
            assert np.allclose(jacobian[:, j - 1], fd, atol=1e-6)

    @pytest.mark.parametrize(
        "src, n", [("r^2 + r^4/4 + x^2", 60), ("sqrt(r^2+1) + x^2/2", 70), ("r^2 + r^4/4 + x^2", 10_000)]
    )
    def test_converges_on_unit_windows(self, src, n):
        # the smaller two raised SingularJacobian while a nested Dual lost its
        # tangent at slope 0 (an r^2 whose base is exactly 0)
        P = VariationalProblem(
            make_uniform(0.0, float(n), 1.0), 0.0, float(n), parse_lagrangian(src), 0.0, 1.0
        )
        result = solve_el_discrete(P)
        assert result.residual_max <= 1e-10
        assert np.max(np.abs(el_residual(P, result.trajectory).values)) <= 1e-10

    def test_returns_the_strict_minimum_not_a_saddle(self):
        # Newton with backtracking on the residual stopped at a saddle with L = 15.8372 here
        P = VariationalProblem(
            make_uniform(0.0, 30.0, 1.0), 0.0, 30.0, parse_lagrangian("r^2 + r^4/4 + sin(x)"), 0.0, 1.0
        )
        result = solve_el_discrete(P)
        assert result.residual_max <= 1e-10
        assert result.second_order == "strict-minimum"
        assert functional(P, result.trajectory) == pytest.approx(-23.3336, abs=1e-4)

    @pytest.mark.parametrize(
        "src, n, value",
        [
            ("r^2 + r^4/4 + sin(x)", 19, -12.333614),
            ("r^2 + r^4/4 + sin(x)", 20, -13.333593),
            ("r^2 + r^4/4 + sin(x)", 29, -22.333571),
            ("r^2 + r^4/4 + sin(x)", 50, -43.333571),
            ("r^2 + r^4/4 + sin(x)", 200, -193.333571),
            ("r^2 + r^4/4 + cos(x)", 20, -10.789781),
            ("r^2 + r^4/4 + cos(x)", 60, -50.789732),
            ("r^2 + r^4/4 + cos(x) + t*x*r", 20, -3548.231687),
            ("r^2 + r^4/4 + cos(x) + t*x*r", 60, -1309257.979649),
        ],
    )
    def test_converges_where_residual_backtracking_stalled(self, src, n, value):
        # each raised NonConvergence ("no step reduces the residual") before
        P = VariationalProblem(
            make_uniform(0.0, float(n), 1.0), 0.0, float(n), parse_lagrangian(src), 0.0, 1.0
        )
        result = solve_el_discrete(P)
        assert result.residual_max <= 1e-10
        assert result.second_order == "strict-minimum"
        assert functional(P, result.trajectory) == pytest.approx(value, rel=1e-7)

    @pytest.mark.parametrize("offset", ["1e6", "1e10", "1e12"])
    def test_a_constant_in_f_does_not_stall_the_line_search(self, offset):
        # L's rounding error grows with the constant and hides the last decreases of L
        def solve(src):
            P = VariationalProblem(
                make_uniform(0.0, 200.0, 1.0), 0.0, 200.0, parse_lagrangian(src), 0.0, 1.0
            )
            return solve_el_discrete(P)

        plain, shifted = solve("r^2 + r^4/4 + sin(x)"), solve(f"r^2 + r^4/4 + sin(x) + {offset}")
        assert shifted.residual_max <= 1e-10
        np.testing.assert_allclose(shifted.trajectory.values, plain.trajectory.values, atol=1e-9)

    def test_second_order_of_a_saddle(self):
        # f = r^2 - 3x^2 on {0..4}: the EL equations x_k + x_{k+1} + x_{k+2} = 0 hold at
        # x = (0, 1, -1, 0, 1), where the Hessian of L has the leading pivot -2
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2 - 3*x^2"), 0.0, 1.0
        )
        result = solve_el_discrete(P, x_init=GridFunction(P.scale, [0.0, 1.0, -1.0, 0.0, 1.0]))
        assert (result.iterations, result.residual_max) == (0, 0.0)
        assert result.second_order == "not-minimum"

    def test_second_order_degenerate(self):
        # f = r^4 has f_rr = 0 at the flat extremal x = 0: every entry of the Hessian is 0
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^4"), 0.0, 0.0
        )
        result = solve_el_discrete(P)
        assert (result.iterations, result.second_order) == (0, "degenerate")

    def test_partials_calls_per_iteration_do_not_grow_with_n(self, monkeypatch):
        calls = []

        def counted(method):
            def call(self, *args):
                calls.append(1)
                return method(self, *args)

            return call

        for name in ("eval", "partials", "second_partials"):
            monkeypatch.setattr(Lagrangian, name, counted(getattr(Lagrangian, name)))
        per_iteration = []
        for n in (20, 2000):
            calls.clear()
            P = VariationalProblem(
                make_uniform(0.0, float(n), 1.0), 0.0, float(n), parse_lagrangian("r^2 + x^2/100"), 0.0, 1.0
            )
            result = solve_el_discrete(P)
            assert result.iterations == 1
            per_iteration.append(len(calls) / result.iterations)
        assert per_iteration[0] == per_iteration[1]

    def test_history_records_each_iteration(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2 + exp(x)"), 0.0, 1.0
        )
        result = solve_el_discrete(P)
        assert len(result.history) == result.iterations > 1
        assert result.history[-1][0] == result.residual_max
        merits = [merit for _, _, merit in result.history]
        assert merits == sorted(merits, reverse=True)
        assert merits[-1] == functional(P, result.trajectory)
        assert all(0.0 < step <= 1.0 for _, step, _ in result.history)

    def test_each_point_is_evaluated_once_by_the_second_partials(self, monkeypatch):
        # a second evaluator of L at each trial point called Lagrangian.eval once per iteration
        calls = {"eval": 0, "second_partials": 0}

        def counted(name):
            method = getattr(Lagrangian, name)

            def call(self, *args):
                calls[name] += 1
                return method(self, *args)

            return call

        for name in calls:
            monkeypatch.setattr(Lagrangian, name, counted(name))
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2 + exp(x)"), 0.0, 1.0
        )
        result = solve_el_discrete(P)
        assert result.iterations > 1 and all(step == 1.0 for _, step, _ in result.history)
        assert calls == {"eval": 0, "second_partials": 1 + result.iterations}

    def test_a_trial_whose_state_is_undefined_halves_the_step(self, monkeypatch):
        # such a trial once passed on f alone, and the partials then ended the solve
        _fail_at_the_first_trial(monkeypatch, DomainError("overflow in the partials"))
        P = quadratic_problem()
        result = solve_el_discrete(P, x_init=P.zero_trajectory())
        assert result.history[0][1] == 0.5
        assert result.residual_max <= 1e-10
        np.testing.assert_allclose(result.trajectory.values, [0.0, 1.0, 2.0, 3.0, 4.0], atol=1e-12)

    def test_a_non_differentiable_trial_still_ends_the_solve(self, monkeypatch):
        _fail_at_the_first_trial(monkeypatch, NonDifferentiablePoint("sqrt is not differentiable at 0"))
        P = quadratic_problem()
        with pytest.raises(NonDifferentiablePoint):
            solve_el_discrete(P, x_init=P.zero_trajectory())

    @pytest.mark.parametrize(
        "scale",
        [make_uniform(0.0, 2.0, 1.0), make_uniform(0.0, 8.0, 1.0), make_uniform(10.0, 14.0, 1.0)],
        ids=["fewer points", "more points", "other points"],
    )
    def test_a_start_on_another_scale_is_rejected_before_any_evaluation(self, scale, monkeypatch):
        # these raised numpy's broadcast error, a wrong-length error after the whole solve, or nothing
        monkeypatch.setattr(variational, "_window_state", None)  # an evaluation would raise TypeError
        with pytest.raises(InvalidParameter, match="another scale than the problem's"):
            solve_el_discrete(quadratic_problem(), x_init=GridFunction.zeros(scale))

    def test_a_start_on_an_equal_but_distinct_scale_solves(self):
        start = GridFunction.zeros(make_points([0, 1, 2, 3, 4]))
        result = solve_el_discrete(quadratic_problem(), x_init=start)
        np.testing.assert_allclose(result.trajectory.values, [0.0, 1.0, 2.0, 3.0, 4.0], atol=1e-12)

    def test_solve_results_compare_by_identity(self):
        # value equality raised numpy's "truth value of an array is ambiguous"
        a, b = solve_el_discrete(quadratic_problem()), solve_el_discrete(quadratic_problem())
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_nonconvergence_carries_history(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2 + exp(x)"), 0.0, 1.0
        )
        with pytest.raises(NonConvergence) as exc:
            solve_el_discrete(P, max_iter=2)
        assert len(exc.value.history) == exc.value.iterations == 2

    def test_merits_do_not_depend_on_the_blas_thread_count(self):
        # with BLAS dots the last two merits ended in ...c405, ...c404 on one
        # OpenBLAS thread and ...c3de, ...c3df on two
        script = (
            "from tsvar import VariationalProblem, make_uniform, parse_lagrangian, solve_el_discrete\n"
            "P = VariationalProblem(make_uniform(0.0, 12000.0, 1.0), 0.0, 12000.0,\n"
            "    parse_lagrangian('0.5*r^2 + 0.3*cos(x) + 0.01*x^2'), 0.3, 1.7)\n"
            "print(' '.join(merit.hex() for _, _, merit in solve_el_discrete(P).history))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        merits = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert run.returncode == 0, run.stderr
            merits.append(run.stdout.split())
        assert len(merits[0]) > 1 and merits[0] == merits[1]

    def test_dense_scale_rejected(self):
        P = VariationalProblem(
            make_dense(0.0, 1.0, 10), 0.0, 1.0, parse_lagrangian("r^2"), 0.0, 1.0
        )
        with pytest.raises(InvalidParameter, match="discrete"):
            solve_el_discrete(P)

    @pytest.mark.parametrize(
        "t0, t1, discrete",
        [
            (0.0, 3.0, True),  # ends where the dense span [3, 4] starts
            (4.0, 7.0, True),  # starts where it ends
            (1.0, 3.5, False),  # ends inside it
            (2.0, 3.1, False),  # ends one node into it
            (3.5, 6.0, False),  # starts inside it
            (3.9, 5.0, False),  # starts at its last node below 4
            (0.0, 7.0, False),  # covers it
            (3.0, 4.0, False),  # is it
        ],
    )
    def test_a_window_is_discrete_unless_it_overlaps_a_dense_span(self, t0, t1, discrete):
        ts = union(make_uniform(0.0, 3.0, 1.0), make_dense(3.0, 4.0, 10), make_uniform(4.0, 7.0, 1.0))
        P = VariationalProblem(ts, t0, t1, parse_lagrangian("r^2"), 0.0, 1.0)
        if not discrete:
            with pytest.raises(InvalidParameter, match="discrete"):
                solve_el_discrete(P)
            return
        i0, i1 = P.window()
        result = solve_el_discrete(P)
        want = (ts.points[i0 : i1 + 1] - t0) / (t1 - t0)  # the extremal of r^2 is the line
        np.testing.assert_allclose(result.trajectory.values[i0 : i1 + 1], want, atol=1e-12)

    @pytest.mark.parametrize(
        "src, scale, x_init, beta",
        [("t*x + r^3", make_geometric(1.0, 4.0, 2.0), np.exp, 0.0)],  # L unbounded below
    )
    def test_overflowing_iterates_end_in_nonconvergence(self, src, scale, x_init, beta):
        P = VariationalProblem(scale, scale.min, scale.max, parse_lagrangian(src), 0.0, beta)
        start = GridFunction.from_callable(scale, x_init)
        with pytest.raises(NonConvergence):  # and no numpy warning, which the suite makes an error
            solve_el_discrete(P, x_init=start)

    @pytest.mark.parametrize(
        "src, scale, x_init, beta",
        [
            # each term is finite, their sum is not: these returned strict-minimum with merit inf
            ("1e308 + r^2 + x^2", make_uniform(0.0, 4.0, 1.0), None, 1.0),
            ("1e308 + r^2 + r^4 + x^2", make_uniform(0.0, 4.0, 1.0), None, 1.0),
            # the last slope is 2e308: this ended in NonConvergence
            ("exp(r/3)", make_points([0.0, 0.5, 1.0]), lambda t: 0.0, 1e308),
        ],
    )
    def test_a_starting_L_that_overflows_is_a_domain_error(self, src, scale, x_init, beta):
        P = VariationalProblem(scale, scale.min, scale.max, parse_lagrangian(src), 0.0, beta)
        start = x_init and GridFunction.from_callable(scale, x_init)
        with pytest.raises(DomainError, match=f"^overflow in the functional of '{re.escape(src)}'$"):
            solve_el_discrete(P, x_init=start)

    def test_a_trial_whose_L_overflows_halves_the_step(self):
        # L falls without bound; a trial where it overflowed to -inf passed the Armijo test
        P = VariationalProblem(
            make_uniform(0.0, 20.0, 1.0), 0.0, 20.0, parse_lagrangian("r^4 - 1e306*r^2"), 0.0, 1.0
        )
        with pytest.raises(NonConvergence) as caught:
            solve_el_discrete(P)
        merits = [merit for _, _, merit in caught.value.history]
        assert merits and all(np.isfinite(merits))

    def test_linear_trajectory_across_the_float_range(self):
        P = VariationalProblem(make_uniform(0.0, 3.0, 1.0), 0.0, 3.0, parse_lagrangian("r^2"), -1e308, 1e308)
        values = P.linear_trajectory().values
        assert values[0] == -1e308 and values[-1] == 1e308
        np.testing.assert_allclose(values[1:-1], [-1e308 / 3, 1e308 / 3], rtol=1e-15)

    @pytest.mark.parametrize("max_iter", [2.5, -1, "a", None, True, float("nan"), float("inf")])
    def test_an_iteration_limit_that_is_not_a_count_is_rejected(self, max_iter):
        with pytest.raises(InvalidParameter, match="^max_iter must be a nonnegative integer"):
            solve_el_discrete(quadratic_problem(), max_iter=max_iter)

    def test_nonconvergence_carries_best_iterate(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2 + x^2"), 0.0, 1.0
        )
        with pytest.raises(NonConvergence) as exc:
            solve_el_discrete(P, max_iter=0)
        assert exc.value.best is not None
        assert exc.value.iterations == 0
        assert np.isfinite(exc.value.residual_max)

    def test_zero_hessian_ends_in_nonconvergence(self):
        # L = sum mu x is unbounded below and H = 0: each shifted step descends, none converges
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("x"), 0.0, 0.0
        )
        with pytest.raises(NonConvergence, match="no convergence within 100 iterations") as exc:
            solve_el_discrete(P)
        merits = [merit for _, _, merit in exc.value.history]
        assert len(merits) == 100 and all(b < a for a, b in zip(merits, merits[1:]))

    def test_zero_pivot_of_a_regular_hessian_is_shifted(self):
        # the first Hessian of L has the pivot 0 in column 0; H + lam*I continues the descent
        P = VariationalProblem(
            make_uniform(0.0, 5.0, 1.0), 0.0, 5.0, parse_lagrangian("r^2 + (x^2 - 1)^2"), 0.0, 0.0
        )
        start = GridFunction(P.scale, np.array([0.0, 0.0, 0.5, -0.5, 0.25, 0.0]))
        _, _, _, diag, off = _window_state(P.lagrangian, P.scale.points, np.diff(P.scale.points), start.values)
        assert diag[0] == 0.0
        result = solve_el_discrete(P, x_init=start)
        assert (result.iterations, result.second_order) == (7, "strict-minimum")
        assert result.residual_max <= 1e-10

    def test_insufficient_points(self):
        P = VariationalProblem(make_points([0, 1]), 0.0, 1.0, parse_lagrangian("r^2"), 0, 1)
        with pytest.raises(InsufficientPoints):
            solve_el_discrete(P)


def _fail_at_the_first_trial(monkeypatch, error: Exception) -> None:
    """Make variational._window_state raise error at its second call, the first trial point."""
    calls = []
    window_state = variational._window_state

    def patched(lagr, t, mu, x):
        calls.append(1)
        if len(calls) == 2:
            raise error
        return window_state(lagr, t, mu, x)

    monkeypatch.setattr(variational, "_window_state", patched)


def _dense(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix with diagonal diag and off-diagonal off."""
    return np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)


@settings(max_examples=60)
@given(
    src=st.sampled_from(SMOOTH_TEMPLATES),
    gaps=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=12),
    start=st.floats(-2.0, 2.0),
    data=st.data(),
)
def test_hessian_bands_match_a_dense_per_term_assembly(src, gaps, start, data):
    lagr = parse_lagrangian(src)
    pts = start + np.concatenate(([0.0], np.cumsum(gaps)))
    n = pts.size
    xv = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    # term k, mu_k f(t_k, x_{k+1}, (x_{k+1} - x_k)/mu_k), adds a block in x_k and x_{k+1}
    want = np.zeros((n, n))
    for k in range(n - 1):
        mu = pts[k + 1] - pts[k]
        *_, f_xx, f_xr, f_rr = lagr.second_partials(pts[k], xv[k + 1], (xv[k + 1] - xv[k]) / mu)
        want[k, k] += f_rr / mu
        want[k + 1, k + 1] += mu * f_xx + 2.0 * f_xr + f_rr / mu
        want[k, k + 1] -= f_xr + f_rr / mu
        want[k + 1, k] -= f_xr + f_rr / mu
    want = want[1:-1, 1:-1]  # the pinned boundary values are no unknowns
    got = _dense(*_window_state(lagr, pts, np.diff(pts), xv)[3:])
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


# the SMOOTH_TEMPLATES that are convex in (x, r)
CONVEX_TEMPLATES = ("r^2", "exp(r/3) + t", "sqrt(r^2 + 1)", "(x + r)^2 / (1 + t^2)")
assert set(CONVEX_TEMPLATES) <= set(SMOOTH_TEMPLATES)


@settings(max_examples=40)
@given(
    src=st.sampled_from(CONVEX_TEMPLATES),
    gaps=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=10),
    start=st.floats(-2.0, 2.0),
    alpha=st.floats(-1.0, 1.0),
    beta=st.floats(-1.0, 1.0),
)
def test_solver_finds_the_minimum_bfgs_finds_on_convex_windows(src, gaps, start, alpha, beta):
    pts = start + np.concatenate(([0.0], np.cumsum(gaps)))
    P = VariationalProblem(make_points(pts), pts[0], pts[-1], parse_lagrangian(src), alpha, beta)
    pts, mu = P.scale.points, np.diff(P.scale.points)

    def L(interior):
        x = np.concatenate(([alpha], interior, [beta]))
        return float(np.dot(mu, P.lagrangian.eval(pts[:-1], x[1:], np.diff(x) / mu)))

    oracle = minimize(L, P.linear_trajectory().values[1:-1], method="BFGS", options={"gtol": 1e-10})
    result = solve_el_discrete(P)
    assert functional(P, result.trajectory) <= oracle.fun + 1e-9
    np.testing.assert_allclose(result.trajectory.values[1:-1], oracle.x, rtol=0.0, atol=1e-6)


# the solve families of the benchmark pool, with their coefficients a, b, c
SOLVE_FAMILIES = (
    "{a!r}*r^2 + {b!r}*x^2",
    "{a!r}*r^2 + {b!r}*t*x + {c!r}*x^2",
    "{a!r}*r^2 + r^4/4 + {b!r}*x^2",
    "sqrt(r^2 + {a!r}) + {b!r}*x^2",
    "r^2 + r^4/4 + sin(x)",
)


@settings(max_examples=150)
@given(
    family=st.sampled_from(SOLVE_FAMILIES),
    a=st.floats(0.5, 2.0),
    b=st.floats(0.1, 1.0),
    c=st.floats(0.1, 1.0),
    n=st.integers(3, 80),
    step=st.sampled_from([None, 0.25, 0.5, 1.0]),  # None: random points
    outside=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    start=st.floats(-1.0, 1.0),
    alpha=st.floats(-1.5, 1.5),
    beta=st.floats(-1.5, 1.5),
    max_iter=st.sampled_from([0, 1, 100]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_solvers_L_is_the_functional_bit_for_bit(
    family, a, b, c, n, step, outside, start, alpha, beta, max_iter, seed
):
    # a converged solve and a NonConvergence both carry L at their trajectory
    before, after = outside
    size = before + n + after
    if step is None:
        gaps = np.random.default_rng(seed).uniform(0.5, 1.5, size - 1)
        ts = make_points(start + np.concatenate(([0.0], np.cumsum(gaps))))
    else:
        ts = make_uniform(start, start + step * (size - 1), step)
    pts = ts.points
    lagr = parse_lagrangian(family.format(a=a, b=b, c=c))
    P = VariationalProblem(ts, pts[before], pts[before + n - 1], lagr, alpha, beta)
    try:
        result = solve_el_discrete(P, max_iter=max_iter)
    except NonConvergence as e:
        x, value = e.best, e.functional
    else:
        x, value = result.trajectory, result.functional
    assert math.isfinite(value)
    assert value == functional(P, x)


class TestTridiagonalSolve:
    """The Newton step: LDL^T of the symmetric tridiagonal Hessian, shifted where indefinite."""

    def test_matches_dense_solve_on_random_systems(self, rng):
        for m in (1, 2, 3, 7, 40):
            for _ in range(20):
                # H = L D L^T with random unit bidiagonal L and positive D: positive definite
                d, l = rng.uniform(0.05, 2.0, m), rng.normal(size=m - 1)
                diag, off = d + np.concatenate(([0.0], l**2 * d[:-1])), l * d[:-1]
                grad = rng.normal(size=m)
                want = np.linalg.solve(_dense(diag, off), -grad)
                np.testing.assert_allclose(
                    _newton_step(diag, off, grad), want, rtol=1e-10, atol=1e-12
                )

    @staticmethod
    def assert_shifted_descent(diag, off, grad, lam):
        """The step solves (H + lam I) s = -grad for the first lam * 2^k making H + lam I
        positive definite, and descends."""
        s = _newton_step(diag, off, grad)
        while np.linalg.eigvalsh(_dense(diag + lam, off)).min() <= 0.0:
            lam *= 2.0
        np.testing.assert_allclose(_dense(diag + lam, off) @ s, -grad, rtol=1e-12)
        assert grad @ s < 0.0  # a descent direction of L

    def test_zero_leading_pivot_is_shifted(self):
        # no row swaps: [[0, 1], [1, 0]] is regular but meets the pivot 0 in column 0
        self.assert_shifted_descent(np.array([0.0, 1.0]), np.array([1.0]), np.ones(2), 1e-3)
        self.assert_shifted_descent(np.array([0.0, 0.0]), np.array([1.0]), np.array([1.0, -2.0]), 1e-3)

    def test_negative_pivot_is_shifted(self):
        # [[1, 2], [2, 1]] has the pivots 1 and -3
        self.assert_shifted_descent(np.array([1.0, 1.0]), np.array([2.0]), np.array([1.0, -0.5]), 1e-3)

    def test_singular_system_is_shifted(self):
        # [[1, 1, 0], [1, 2, 2], [0, 2, 4]] is singular: LDL^T meets an exact zero pivot
        diag, off = np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(_dense(diag, off), np.ones(3))
        self.assert_shifted_descent(diag, off, np.ones(3), 4e-3)  # 1e-3 * max|diag|
        np.testing.assert_array_equal(_newton_step(np.zeros(4), np.zeros(3), np.ones(4)), -1e3)


class TestSpikePerturbation:
    def test_spike_slopes(self, harmonic_problem):
        zero = harmonic_problem.zero_trajectory()
        spike = spike_perturbation(harmonic_problem, zero, 1 / 3, 1.0)
        assert spike.value_at(0.5) == 1.0
        assert delta_derivative(spike, 1 / 3).value == pytest.approx(6.0, abs=1e-12)
        assert delta_derivative(spike, 0.5).value == pytest.approx(-2.0, abs=1e-12)
        others = [t for t in harmonic_problem.scale.points if t not in (0.5,)]
        assert all(spike.value_at(float(t)) == 0.0 for t in others)

    def test_zero_height_rejected(self, harmonic_problem):
        with pytest.raises(InvalidParameter):
            spike_perturbation(harmonic_problem, harmonic_problem.zero_trajectory(), 1 / 3, 0.0)

    @pytest.mark.parametrize("d", ["a", None, True])
    def test_a_height_that_is_not_a_number_is_rejected(self, harmonic_problem, d):
        with pytest.raises(InvalidParameter, match="spike height d must be"):
            spike_perturbation(harmonic_problem, harmonic_problem.zero_trajectory(), 1 / 3, d)

    def test_adjacent_to_right_boundary_rejected(self, harmonic_problem):
        # sigma(1/2) = 1 = t1
        with pytest.raises(InvalidSpikeLocation):
            spike_perturbation(harmonic_problem, harmonic_problem.zero_trajectory(), 0.5, 1.0)

    def test_dense_location_rejected(self):
        P = VariationalProblem(
            union(make_points([-1.0]), make_dense(0.0, 1.0, 10), make_points([2.0, 3.0])),
            -1.0,
            3.0,
            parse_lagrangian("r^2"),
            0.0,
            0.0,
        )
        with pytest.raises(InvalidSpikeLocation):
            spike_perturbation(P, P.zero_trajectory(), 0.5, 1.0)

    def test_boundary_location_rejected(self, harmonic_problem):
        with pytest.raises(InvalidSpikeLocation):
            spike_perturbation(harmonic_problem, harmonic_problem.zero_trajectory(), 0.0, 1.0)


class TestMinimalityFalsification:
    def test_witnesses_for_shrinking_radii(self, harmonic_problem):
        for delta in (0.5, 0.1, 0.01):
            w = find_spike_below(harmonic_problem, delta)
            assert w is not None
            assert abs(w.d) < delta
            assert w.slope_ratio > 1.0
            assert w.functional_value < 0.0

    def test_no_witness_when_radius_below_graininess(self, harmonic_problem):
        # every admissible location has mu(sigma(t_at)) >= 1/(49*48)
        assert find_spike_below(harmonic_problem, 1e-8) is None

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf"), "a", None, True])
    def test_a_radius_that_is_not_positive_is_rejected(self, harmonic_problem, delta):
        with pytest.raises(InvalidParameter, match="delta must be positive"):
            find_spike_below(harmonic_problem, delta)

    @pytest.mark.parametrize("bound", [-1.0, float("nan")])
    def test_a_slope_bound_below_the_boundary_slope_is_rejected(self, harmonic_problem, rng, bound):
        with pytest.raises(InvalidParameter, match="boundary slope exceeds the requested bound"):
            random_bounded_slope_trajectory(harmonic_problem, rng, slope_bound=bound)

    @pytest.mark.parametrize("bound", ["a", None, True])
    def test_a_slope_bound_that_is_not_a_number_is_rejected(self, harmonic_problem, rng, bound):
        with pytest.raises(InvalidParameter, match="slope_bound must be a number"):
            random_bounded_slope_trajectory(harmonic_problem, rng, slope_bound=bound)

    def test_a_slope_bound_beyond_the_float_range_bounds_nothing(self, harmonic_problem):
        unbounded = random_bounded_slope_trajectory(harmonic_problem, np.random.default_rng(3), float("inf"))
        huge = random_bounded_slope_trajectory(harmonic_problem, np.random.default_rng(3), 10**400)
        assert np.array_equal(huge.values, unbounded.values)

    def test_random_bounded_slope_trajectories(self, harmonic_problem, rng):
        for _ in range(100):
            x = random_bounded_slope_trajectory(harmonic_problem, rng)
            assert is_admissible(harmonic_problem, x)
            slopes = [
                delta_derivative(x, float(t)).value
                for t in harmonic_problem.scale.kappa_points(0.0, 1.0)
            ]
            assert max(abs(s) for s in slopes) <= 1.0 + 1e-9
            assert functional(harmonic_problem, x) >= -1e-12

    def test_sampler_respects_nonzero_boundaries(self, rng):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2"), -1.0, 2.0
        )
        x = random_bounded_slope_trajectory(P, rng, slope_bound=2.0)
        assert is_admissible(P, x)

    def test_sampler_does_not_depend_on_the_blas_thread_count(self):
        # with a BLAS dot x.values[-2] ended in ...c2cc on one OpenBLAS thread
        # and ...c3cc on two
        script = (
            "import numpy as np\n"
            "from tsvar import VariationalProblem, make_uniform, parse_lagrangian\n"
            "from tsvar import random_bounded_slope_trajectory\n"
            "P = VariationalProblem(make_uniform(0.0, 20000.0, 1.0), 0.0, 20000.0,\n"
            "    parse_lagrangian('r^2'), 0.3, 1.7)\n"
            "x = random_bounded_slope_trajectory(P, np.random.default_rng(5))\n"
            "print(' '.join(v.hex() for v in x.values.tolist()))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        values = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert run.returncode == 0, run.stderr
            values.append(run.stdout.split())
        assert len(values[0]) == 20001 and values[0] == values[1]


# each raised AttributeError or numpy's ValueError, not a TsvarError
WRONG_ARGUMENTS = {
    "norm_strong": (lambda P: norm_strong(P.scale.points, 0.0, 1.0), "^x must be a GridFunction, not ndarray$"),
    "norm_weak": (lambda P: norm_weak(None, 0.0, 1.0), "^x must be a GridFunction, not NoneType$"),
    "rng": (
        lambda P: random_bounded_slope_trajectory(P, np.random.RandomState(0)),
        r"^rng must be a numpy\.random\.Generator, not RandomState$",
    ),
    "value-text": (
        lambda P: GridFunction.zeros(P.scale).with_value_at(0.5, "a"),
        "^value must be a finite number, got 'a'$",
    ),
    "value-list": (
        lambda P: GridFunction.zeros(P.scale).with_value_at(0.5, [1, 2]),
        r"^value must be a finite number, got \[1, 2\]$",
    ),
    "lagrangian-list": (lambda P: parse_lagrangian(["r"]), "^src must be a string, not list$"),
    "lagrangian-int": (lambda P: parse_lagrangian(3), "^src must be a string, not int$"),
    # zeros reached len(scale) and from_callable called fn before either was checked: TypeError
    **{
        f"zeros-{name}": (lambda P, s=scale: GridFunction.zeros(s), f"^a grid function needs a TimeScale, not {name}$")
        for name, scale in [("NoneType", None), ("int", 3), ("float", 1.5), ("bool", True), ("object", object())]
    },
    "from-callable-scale": (
        lambda P: GridFunction.from_callable(None, math.sin),
        "^a grid function needs a TimeScale, not NoneType$",
    ),
    **{
        f"from-callable-{name}": (
            lambda P, fn=fn: GridFunction.from_callable(P.scale, fn),
            f"^fn must be callable, not {name}$",
        )
        for name, fn in [
            ("NoneType", None), ("str", "sin"), ("list", [1.0]), ("dict", {}), ("ndarray", np.zeros(3)), ("float", 2.0)
        ]
    },
}


@pytest.mark.parametrize("call, message", WRONG_ARGUMENTS.values(), ids=WRONG_ARGUMENTS.keys())
def test_an_argument_of_the_wrong_type_is_named(harmonic_problem, call, message):
    with pytest.raises(InvalidParameter, match=message):
        call(harmonic_problem)


def test_no_lagrangian_is_still_an_empty_expression():
    with pytest.raises(ExpressionSyntaxError, match="^empty expression"):
        parse_lagrangian(None)
