"""Functional evaluation, Euler-Lagrange residual/solver, and spike machinery."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tsvar import (
    EmptyInterval,
    GridFunction,
    InsufficientPoints,
    InvalidParameter,
    InvalidSpikeLocation,
    NonConvergence,
    PointNotInScale,
    SingularJacobian,
    VariationalProblem,
    delta_derivative,
    el_residual,
    find_spike_below,
    functional,
    is_admissible,
    make_dense,
    make_harmonic,
    make_points,
    make_uniform,
    parse_lagrangian,
    random_bounded_slope_trajectory,
    solve_el_discrete,
    spike_perturbation,
    union,
)
from tsvar.dual import Dual, tangent_of
from tsvar.expressions import Lagrangian
from tsvar.variational import _solve_tridiagonal, _window_jacobian, _window_residual
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
        marked = x.with_break_points((float(ts.points[4]),))
        assert functional(P, x) == functional(P, marked)


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

    def test_needs_three_points(self):
        P = VariationalProblem(make_points([0, 1]), 0.0, 1.0, parse_lagrangian("r^2"), 0, 1)
        with pytest.raises(InsufficientPoints):
            el_residual(P, P.linear_trajectory())


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
        lagr = parse_lagrangian("r^2 + exp(x) + t*x*r")
        pts = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        xv = np.array([0.0, 0.3, -0.2, 0.7, 1.0])
        h = 1e-7
        ad = _dense(_window_jacobian(lagr, pts, xv))
        for j in range(1, 4):
            bumped = xv.copy()
            bumped[j] = xv[j] + h
            f1 = _window_residual(lagr, pts, bumped)
            bumped[j] = xv[j] - h
            f0 = _window_residual(lagr, pts, bumped)
            fd = (f1 - f0) / (2 * h)
            assert np.allclose(ad[:, j - 1], fd, atol=1e-6)

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

    def test_partials_calls_per_iteration_do_not_grow_with_n(self, monkeypatch):
        calls = []
        partials = Lagrangian.partials

        def counted(self, *args):
            calls.append(1)
            return partials(self, *args)

        monkeypatch.setattr(Lagrangian, "partials", counted)
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
        residuals = [res for res, _ in result.history]
        assert residuals == sorted(residuals, reverse=True)
        assert all(0.0 < step <= 1.0 for _, step in result.history)

    def test_nonconvergence_carries_history(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2 + exp(x)"), 0.0, 1.0
        )
        with pytest.raises(NonConvergence) as exc:
            solve_el_discrete(P, max_iter=2)
        assert len(exc.value.history) == exc.value.iterations == 2

    def test_dense_scale_rejected(self):
        P = VariationalProblem(
            make_dense(0.0, 1.0, 10), 0.0, 1.0, parse_lagrangian("r^2"), 0.0, 1.0
        )
        with pytest.raises(InvalidParameter, match="discrete"):
            solve_el_discrete(P)

    def test_nonconvergence_carries_best_iterate(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2 + x^2"), 0.0, 1.0
        )
        with pytest.raises(NonConvergence) as exc:
            solve_el_discrete(P, max_iter=0)
        assert exc.value.best is not None
        assert exc.value.iterations == 0
        assert np.isfinite(exc.value.residual_max)

    def test_singular_jacobian(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("x"), 0.0, 0.0
        )
        with pytest.raises(SingularJacobian):
            solve_el_discrete(P)

    def test_insufficient_points(self):
        P = VariationalProblem(make_points([0, 1]), 0.0, 1.0, parse_lagrangian("r^2"), 0, 1)
        with pytest.raises(InsufficientPoints):
            solve_el_discrete(P)


def _dense(bands: np.ndarray) -> np.ndarray:
    """The tridiagonal matrix whose row k holds bands[:, k] at columns k-1, k, k+1."""
    return np.diag(bands[1]) + np.diag(bands[0, 1:], -1) + np.diag(bands[2, :-1], 1)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    src=st.sampled_from(SMOOTH_TEMPLATES),
    gaps=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=12),
    start=st.floats(-2.0, 2.0),
    data=st.data(),
)
def test_colored_jacobian_matches_one_seed_per_unknown(src, gaps, start, data):
    lagr = parse_lagrangian(src)
    pts = start + np.concatenate(([0.0], np.cumsum(gaps)))
    n = pts.size
    xv = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    want = np.zeros((n - 2, n - 2))
    for j in range(1, n - 1):
        want[:, j - 1] = tangent_of(_window_residual(lagr, pts, Dual(xv, np.eye(n)[j])))
    got = _dense(_window_jacobian(lagr, pts, xv))
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


class TestTridiagonalSolve:
    def test_matches_dense_solve_on_random_systems(self, rng):
        for m in (1, 2, 3, 7, 40):
            for _ in range(20):
                bands, b = rng.normal(size=(3, m)), rng.normal(size=m)
                want = np.linalg.solve(_dense(bands), b)
                assert np.allclose(_solve_tridiagonal(bands, b), want, rtol=1e-10, atol=1e-12)

    def test_zero_leading_diagonal_swaps_rows(self):
        bands = np.array([[0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 4.0, 2.0], [5.0, 1.0, 2.0, 0.0]])
        b = np.array([1.0, -2.0, 3.0, 0.5])
        A = _dense(bands)
        assert A[0, 0] == 0.0
        y = _solve_tridiagonal(bands, b)
        assert np.allclose(y, np.linalg.solve(A, b), rtol=1e-13, atol=1e-14)
        assert np.allclose(A @ y, b, rtol=1e-13, atol=1e-14)

    def test_small_pivot_is_swapped_out(self):
        # eliminating with the pivot 1e-20 would lose y0 = 1 to cancellation
        bands = np.array([[0.0, 1.0], [1e-20, 1.0], [1.0, 0.0]])
        y = _solve_tridiagonal(bands, np.array([1.0, 2.0]))
        assert np.allclose(y, [1.0, 1.0], rtol=1e-15)

    def test_singular_system_raises(self):
        # det [[1, 1, 0], [1, 2, 2], [0, 2, 4]] = 0: elimination meets an exact zero pivot
        bands = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 4.0], [1.0, 2.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(_dense(bands), np.ones(3))
        with pytest.raises(SingularJacobian):
            _solve_tridiagonal(bands, np.ones(3))
        with pytest.raises(SingularJacobian):
            _solve_tridiagonal(np.zeros((3, 4)), np.ones(4))


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
