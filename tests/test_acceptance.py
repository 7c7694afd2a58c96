"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import math
import time

import numpy as np
import pytest

from tsvar import (
    GridFunction,
    VariationalProblem,
    check_convexity_condition,
    delta_derivative,
    delta_integral,
    excess,
    find_spike_below,
    functional,
    make_dense,
    make_geometric,
    make_harmonic,
    make_uniform,
    parse_lagrangian,
    random_bounded_slope_trajectory,
    solve_el_discrete,
    spike_perturbation,
    weierstrass_scan,
)
from tsvar.cli import main
from conftest import SMOOTH_TEMPLATES, random_discrete_scale, random_point


def _report(n, message):
    print(f"\n[acceptance] criterion {n:2d} PASS: {message}")


@pytest.fixture(scope="module")
def spike_problem():
    return VariationalProblem(
        make_harmonic(50), 0.0, 1.0, parse_lagrangian("r^2 - r^4"), 0.0, 0.0
    )


def test_criterion_01_zero_trajectory_baseline(spike_problem):
    value = functional(spike_problem, spike_problem.zero_trajectory())
    assert abs(value) <= 1e-14
    _report(1, f"zero trajectory on harmonic(50) has |L| = {abs(value)} <= 1e-14")


def test_criterion_02_spike_value(spike_problem):
    ts = spike_problem.scale
    spike = spike_perturbation(spike_problem, spike_problem.zero_trajectory(), 1 / 3, 1.0)
    value = functional(spike_problem, spike)

    # independent oracle: the displayed two-term mu-weighted sum
    start = time.perf_counter()
    mu0, mu1 = ts.mu(1 / 3), ts.mu(1 / 2)
    term1 = mu0 * ((1.0 / mu0) ** 2 - (1.0 / mu0) ** 4)
    term2 = mu1 * ((1.0 / mu1) ** 2 - (1.0 / mu1) ** 4)
    oracle_time = time.perf_counter() - start

    assert abs(term1 - (-210.0)) <= 1e-9
    assert abs(term2 - (-6.0)) <= 1e-9
    assert abs(value - (-216.0)) <= 1e-9
    assert abs(value - (term1 + term2)) <= 1e-9
    assert oracle_time < 1e-3
    _report(2, f"L[spike(1/3, 1)] = {value} = ({term1}) + ({term2})")


def test_criterion_03_strong_minimum_falsification(spike_problem):
    # the budget holds for the best of 5 repeats, so that a load spike on a
    # shared machine does not fail it
    elapsed = []
    for _ in range(5):
        start = time.perf_counter()
        witnesses = {delta: find_spike_below(spike_problem, delta) for delta in (0.5, 0.1, 0.01)}
        elapsed.append(time.perf_counter() - start)
    for delta, w in witnesses.items():
        assert w is not None
        assert abs(w.d) < delta
        assert w.slope_ratio > 1.0
        assert w.functional_value < 0.0
    assert min(elapsed) < 0.010, f"search took {min(elapsed) * 1e3:.2f} ms at best of 5"
    _report(
        3,
        "spikes below every radius: "
        + ", ".join(
            f"delta={d}: d={w.d:.4g}, L={w.functional_value:.4g}" for d, w in witnesses.items()
        ),
    )


def test_criterion_04_weak_minimum_property(spike_problem):
    rng = np.random.default_rng(424242)
    start = time.perf_counter()
    worst = min(
        functional(spike_problem, random_bounded_slope_trajectory(spike_problem, rng))
        for _ in range(1000)
    )
    elapsed = time.perf_counter() - start
    assert worst >= -1e-12
    assert elapsed < 1.0, f"1000 evaluations took {elapsed:.2f} s"
    _report(4, f"1000 random |x^D| <= 1 trajectories: min L = {worst:.6g} >= -1e-12")


def test_criterion_05_excess_diagonal():
    rng = np.random.default_rng(5)
    lagrangians = [parse_lagrangian(src) for src in SMOOTH_TEMPLATES]
    worst = 0.0
    for i in range(1000):
        L = lagrangians[i % len(lagrangians)]
        t, x, r = random_point(rng)
        worst = max(worst, abs(excess(L, t, x, r, r)))
    assert worst <= 1e-12
    _report(5, f"1000 diagonal samples over {len(lagrangians)} templates: max |E| = {worst}")


def test_criterion_06_quadratic_excess_closed_form():
    rng = np.random.default_rng(6)
    L = parse_lagrangian("r^2")
    worst = 0.0
    for _ in range(1000):
        r, q = rng.uniform(-5.0, 5.0, 2)
        worst = max(worst, abs(excess(L, 0.0, 0.0, float(r), float(q)) - (q - r) ** 2))
    assert worst <= 1e-12
    _report(6, f"1000 random (r, q): max |E - (q - r)^2| = {worst}")


def test_criterion_07_scan_and_convexity_counterexample(spike_problem):
    zero = spike_problem.zero_trajectory()
    kappa = spike_problem.scale.kappa_points(0.0, 1.0)
    violations = weierstrass_scan(spike_problem, zero, q_grid=[-2.0, 2.0])
    assert len(violations) == 2 * len(kappa)  # every right-scattered point, both q
    assert all(abs(v.E - (-12.0)) <= 1e-9 for v in violations)

    convexity = check_convexity_condition(spike_problem, [0.0], [-2.0, 2.0], [0.5])
    assert not convexity.ok
    cx = convexity.counterexample
    assert {cx.r1, cx.r2} == {-2.0, 2.0} and cx.gamma == 0.5
    assert cx.lhs == 0.0 and abs(cx.rhs - (-12.0)) <= 1e-12  # 0 <= -12 is false
    _report(
        7,
        f"E = -12 at q = +-2 on all {len(kappa)} kappa points; "
        f"convexity counterexample f(0)=0 > -12",
    )


def test_criterion_08_discrete_case():
    P = VariationalProblem(
        make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2"), 0.0, 4.0
    )
    result = solve_el_discrete(P)
    # independent oracle: tridiagonal linear system for constant slopes
    A = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
    b = np.array([-0.0, 0.0, -4.0])
    oracle = np.linalg.solve(A, b)
    assert np.allclose(result.trajectory.values[1:-1], oracle, atol=1e-10)
    assert np.allclose(result.trajectory.values, [0, 1, 2, 3, 4], atol=1e-10)
    assert result.residual_max <= 1e-10
    violations = weierstrass_scan(P, result.trajectory, q_grid=np.linspace(-10, 10, 41))
    assert violations == []
    _report(8, "solver returns x(t) = t (oracle match), residual <= 1e-10, scan clean")


def test_criterion_09_q_scale_case():
    ts = make_geometric(1.0, 16.0, 2.0)
    x = GridFunction.from_callable(ts, lambda t: t * t)
    worst = max(
        abs(delta_derivative(x, t).value - 3.0 * t) for t in (1.0, 2.0, 4.0, 8.0)
    )
    assert worst <= 1e-12
    ones = GridFunction.from_callable(ts, lambda t: 1.0)
    total = delta_integral(ones, 1.0, 16.0)
    assert abs(total - 15.0) <= 1e-12
    _report(9, f"x^D of t^2 is (q+1)t to {worst}; integral of 1 = {total} = 1+2+4+8")


def test_criterion_10_calculus_identity_suite():
    rng = np.random.default_rng(10)
    worst = {"step": 0.0, "product": 0.0, "quotient": 0.0, "parts1": 0.0, "parts2": 0.0, "ftc": 0.0}
    for _ in range(500):
        ts = random_discrete_scale(rng, int(rng.integers(5, 15)))
        n = len(ts)
        pts = ts.points
        f = GridFunction(ts, rng.uniform(-1, 1, n))
        gv = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
        g = GridFunction(ts, gv)

        i = int(rng.integers(0, n - 1))
        t = float(pts[i])
        worst["step"] = max(
            worst["step"], abs(delta_integral(g, t, ts.sigma(t)) - ts.mu(t) * g.value_at(t))
        )

        fd = np.array([delta_derivative(f, float(p)).value for p in pts[:-1]] + [0.0])
        gd = np.array([delta_derivative(g, float(p)).value for p in pts[:-1]] + [0.0])
        sig = np.minimum(np.arange(n) + 1, n - 1)
        fg = GridFunction(ts, f.values * g.values)
        for k in range(n - 1):
            tk = float(pts[k])
            lhs = delta_derivative(fg, tk).value
            worst["product"] = max(
                worst["product"], abs(lhs - (fd[k] * g.values[sig[k]] + f.values[k] * gd[k]))
            )
            quot_lhs = delta_derivative(GridFunction(ts, f.values / g.values), tk).value
            quot_rhs = (fd[k] * g.values[k] - f.values[k] * gd[k]) / (
                g.values[k] * g.values[sig[k]]
            )
            worst["quotient"] = max(worst["quotient"], abs(quot_lhs - quot_rhs))

        c, d = ts.min, ts.max
        boundary = f.values[-1] * g.values[-1] - f.values[0] * g.values[0]
        lhs1 = delta_integral(GridFunction(ts, f.values[sig] * gd), c, d)
        rhs1 = boundary - delta_integral(GridFunction(ts, fd * g.values), c, d)
        worst["parts1"] = max(worst["parts1"], abs(lhs1 - rhs1))
        lhs2 = delta_integral(GridFunction(ts, f.values * gd), c, d)
        rhs2 = boundary - delta_integral(GridFunction(ts, fd * g.values[sig]), c, d)
        worst["parts2"] = max(worst["parts2"], abs(lhs2 - rhs2))

        worst["ftc"] = max(
            worst["ftc"],
            abs(delta_integral(GridFunction(ts, fd), c, d) - (f.values[-1] - f.values[0])),
        )
    assert all(v <= 1e-12 for v in worst.values()), worst

    # dense segments: additivity and the fundamental theorem at resolution 1000
    ts = make_dense(0.0, 1.0, 1000)
    F = GridFunction.from_callable(ts, math.sin)
    deriv = GridFunction(ts, [delta_derivative(F, float(t)).value for t in ts.points])
    ftc_err = abs(delta_integral(deriv, 0.0, 1.0) - (math.sin(1.0) - math.sin(0.0)))
    split = float(ts.points[317])
    add_err = abs(
        delta_integral(deriv, 0.0, split)
        + delta_integral(deriv, split, 1.0)
        - delta_integral(deriv, 0.0, 1.0)
    )
    assert ftc_err <= 1e-6 and add_err <= 1e-6
    _report(
        10,
        "500 discrete trials: "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f"; dense ftc={ftc_err:.2e}, additivity={add_err:.2e}",
    )


def test_criterion_11_ad_validation():
    rng = np.random.default_rng(11)
    h = 1e-6
    lagrangians = [parse_lagrangian(src) for src in SMOOTH_TEMPLATES]
    worst = 0.0
    for i in range(500):
        L = lagrangians[i % len(lagrangians)]
        t, x, r = random_point(rng)
        _, f_x, f_r = L.partials(t, x, r)
        fd_x = (L.eval(t, x + h, r) - L.eval(t, x - h, r)) / (2 * h)
        fd_r = (L.eval(t, x, r + h) - L.eval(t, x, r - h)) / (2 * h)
        rel_x = abs(f_x - fd_x) / max(1.0, abs(f_x))
        rel_r = abs(f_r - fd_r) / max(1.0, abs(f_r))
        worst = max(worst, rel_x, rel_r)
    assert worst <= 1e-5
    _report(11, f"500 random instances: max relative AD-vs-FD deviation {worst:.2e}")


def test_criterion_12_repro_runs_end_to_end(capsys):
    start = time.perf_counter()
    code = main(["repro", "all"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert elapsed < 5.0, f"repro took {elapsed:.2f} s"
    _report(12, f"`tsvar repro all` exits 0 in {elapsed:.2f} s (< 5 s)")
