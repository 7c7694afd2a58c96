"""Excess function, convexity hypothesis, scans, and candidate classification."""

import re

import numpy as np
import pytest

from tsvar import (
    DomainError,
    ExcessTable,
    GridFunction,
    InvalidParameter,
    SlopeKind,
    VariationalProblem,
    Verdict,
    check_convexity_condition,
    classify_candidate,
    default_q_grid,
    el_residual,
    excess,
    functional,
    make_dense,
    make_geometric,
    make_harmonic,
    make_points,
    make_uniform,
    norm_weak,
    parse_lagrangian,
    solve_el_discrete,
    union,
    weierstrass_scan,
)
from tsvar import weierstrass
from tsvar.weierstrass import MAX_Q_COUNT, observed_slopes
from conftest import SMOOTH_TEMPLATES, random_point

KINDS = list(SlopeKind)  # a table's kind column holds positions in SlopeKind


def kinds(table, where=slice(None)):
    """The SlopeKind of each row of table[where]."""
    return [KINDS[code] for code in table.kind[where].tolist()]


class TestExcess:
    def test_vanishes_on_diagonal(self, rng):
        for src in SMOOTH_TEMPLATES:
            L = parse_lagrangian(src)
            for _ in range(10):
                t, x, r = random_point(rng)
                assert abs(excess(L, t, x, r, r)) <= 1e-12

    def test_quadratic_closed_form(self, rng):
        L = parse_lagrangian("r^2")
        for _ in range(100):
            r, q = rng.uniform(-5, 5, 2)
            assert excess(L, 0.0, 0.0, float(r), float(q)) == pytest.approx(
                (q - r) ** 2, abs=1e-12
            )

    def test_quartic_at_rest(self):
        L = parse_lagrangian("r^2 - r^4")
        assert excess(L, 0.0, 0.0, 0.0, 2.0) == -12.0
        assert excess(L, 0.0, 0.0, 0.0, -2.0) == -12.0

    def test_scaling_covariance(self, rng):
        L = parse_lagrangian("r^2 - r^4 + x*r")
        L3 = parse_lagrangian("3 * (r^2 - r^4 + x*r)")
        for _ in range(50):
            t, x, r = random_point(rng)
            q = float(rng.uniform(-3, 3))
            e = excess(L, t, x, r, q)
            assert excess(L3, t, x, r, q) == pytest.approx(3.0 * e, abs=1e-12 * max(1, abs(e)))

    def test_overflow_raises(self):
        # f and f_r are finite, (q - r) * f_r is not
        with pytest.raises(DomainError, match=r"^overflow in the excess of '1e308\*sin\(r\)'"):
            excess(parse_lagrangian("1e308*sin(r)"), 0.0, 0.0, 0.0, 2.5)

    def test_an_error_of_f_at_q_names_the_row_and_q(self):
        L = parse_lagrangian("log(r)")
        message = r"^log of a non-positive value in 'log\(r\)' at t=0\.0, x=0\.0, r=1\.0, q=-1\.0$"
        with pytest.raises(DomainError, match=message):
            excess(L, 0.0, 0.0, 1.0, -1.0)
        # a scan meets it at its first row: t=0, where x^sigma and the slope are 1
        P = VariationalProblem(make_uniform(0.0, 2.0, 1.0), 0.0, 2.0, L, 0.0, 2.0)
        x = GridFunction.from_callable(P.scale, lambda t: t)
        with pytest.raises(DomainError, match=message.replace("x=0", "x=1")):
            weierstrass_scan(P, x, q_grid=[2.0, -1.0])

    def test_needs_f_and_f_r_only(self):
        # f_x of sqrt(x) does not exist at x = 0, but E is (q - r)^2 there
        L = parse_lagrangian("sqrt(x) + r^2")
        r, q = np.array([[-1.0], [0.0], [0.5]]), np.array([-2.0, 0.0, 1.5, 3.0])
        np.testing.assert_allclose(excess(L, 0.0, 0.0, r, q), (q - r) ** 2, rtol=1e-15)
        assert excess(L, 1.0, 0.0, 0.5, 3.0) == 6.25
        P = VariationalProblem(make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, L, 0.0, 0.0)
        assert len(weierstrass_scan(P, P.zero_trajectory(), q_grid=np.linspace(-5, 5, 11))) == 0

    def test_gives_a_float_for_scalars_and_a_read_only_array_for_arrays(self):
        L = parse_lagrangian("r^2 - r^4 + t*x")
        assert type(excess(L, 0.0, 0.0, 0.0, 2.0)) is float
        E = excess(L, np.array([[0.0], [1.0]]), 0.5, np.array([[0.0], [1.0]]), [-2.0, 0.5, 2.0])
        assert E.shape == (2, 3) and not E.flags.writeable
        assert E[1, 2] == pytest.approx(excess(L, 1.0, 0.5, 1.0, 2.0), rel=1e-15)


class TestConvexityCondition:
    def test_convex_quadratic_passes(self, harmonic_problem):
        P = VariationalProblem(
            harmonic_problem.scale, 0.0, 1.0, parse_lagrangian("r^2"), 0.0, 0.0
        )
        report = check_convexity_condition(P, [-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [0.25, 0.5])
        assert report.ok and report.counterexample is None
        assert report.checks > 0

    def test_quartic_fails_with_midpoint_witness(self, harmonic_problem):
        report = check_convexity_condition(harmonic_problem, [0.0], [-2.0, 2.0], [0.5])
        assert not report.ok
        cx = report.counterexample
        assert (cx.r1, cx.r2, cx.gamma) == (-2.0, 2.0, 0.5)
        assert cx.lhs == 0.0  # f(0)
        assert cx.rhs == pytest.approx(-12.0, abs=1e-12)

    def test_an_f_with_t_is_swept_past_the_first_point(self, harmonic_problem):
        # r^2 - t*r^4 is convex in r at t = 0 only: the counterexample is at a later point
        P = VariationalProblem(
            harmonic_problem.scale, 0.0, 1.0, parse_lagrangian("r^2 - t*r^4"), 0.0, 0.0
        )
        report = classify_candidate(P, P.zero_trajectory())
        assert not report.convexity_ok and report.convexity_counterexample.t >= 1 / 24

    def test_vacuous_on_dense_scale(self):
        P = VariationalProblem(
            make_dense(0.0, 1.0, 50), 0.0, 1.0, parse_lagrangian("r^2 - r^4"), 0.0, 0.0
        )
        report = check_convexity_condition(P, [0.0], [-2.0, 2.0], [0.5])
        assert report.ok
        assert report.checks == 0  # mu = 0 everywhere: condition holds trivially

    def test_no_point_to_check_evaluates_nothing(self):
        P = VariationalProblem(
            make_dense(0.0, 1.0, 50), 0.0, 1.0, parse_lagrangian("r^2 + log(0 - 1)"), 0.0, 0.0
        )
        report = check_convexity_condition(P, [0.0], [-2.0, 2.0], [0.5])
        assert report.ok and report.checks == 0

    def test_first_point_is_checked_on_its_own(self, harmonic_problem, monkeypatch):
        sizes = []
        original = weierstrass.eval_rows

        def spy(fn, env):
            sizes.append(np.size(env["t"]))
            return original(fn, env)

        monkeypatch.setattr(weierstrass, "eval_rows", spy)
        report = check_convexity_condition(harmonic_problem, [0.0, 1.0], [-2.0, 2.0], [0.5])
        assert not report.ok and report.checks == 1
        assert sizes == [1]  # the other points are never evaluated
        sizes.clear()
        convex = VariationalProblem(
            harmonic_problem.scale, 0.0, 1.0, parse_lagrangian("r^2"), 0.0, 0.0
        )
        report = check_convexity_condition(convex, [0.0, 1.0], [-2.0, 2.0], [0.5])
        # f has no t: one block of one point, and the checks of every point (4 a point)
        assert report.ok and sizes == [1] and report.checks == 4 * 50
        sizes.clear()
        with_t = VariationalProblem(
            harmonic_problem.scale, 0.0, 1.0, parse_lagrangian("r^2 + t"), 0.0, 0.0
        )
        report = check_convexity_condition(with_t, [0.0, 1.0], [-2.0, 2.0], [0.5])
        # f has t: the points are swept in plain blocks, here one block of all 50
        assert report.ok and sizes == [50] and report.checks == 4 * 50


@pytest.mark.parametrize(
    "samples, message",
    [
        (([], [-1.0, 1.0], [0.5]), "x_samples must be a nonempty 1-d sequence of finite numbers"),
        (([np.nan], [-1.0, 1.0], [0.5]), "x_samples must be"),
        (([[0.0, 1.0]], [-1.0, 1.0], [0.5]), "x_samples must be"),
        ((0.0, [-1.0, 1.0], [0.5]), "x_samples must be"),
        (([0.0], [-np.inf, np.inf], [0.5]), "r_samples must be"),
        (([0.0], [[-1.0, 1.0]], [0.5]), "r_samples must be"),
        (([0.0], [-1.0, 1.0], [np.nan]), "gamma_samples must be"),
        (([0.0], [-1.0, 1.0], 0.5), "gamma_samples must be"),
        (([0.0], [-1.0, 1.0], [0.5, 2.0]), r"gamma_samples must lie in \[0, 1\]"),
        (([0.0], [-1.0, 1.0], [-0.5]), r"gamma_samples must lie in \[0, 1\]"),
    ],
)
def test_convexity_samples_must_be_finite_1d_lists_and_gamma_in_the_unit_interval(samples, message):
    # each of these gave a verdict: ok for the non-convex x^2 - r^4 on NaN or
    # infinite samples, a counterexample for the convex r^2 + x^2 at gamma = 2
    for src in ("x^2 - r^4", "r^2 + x^2"):
        P = VariationalProblem(make_harmonic(50), 0.0, 1.0, parse_lagrangian(src), 0.0, 0.0)
        with pytest.raises(InvalidParameter, match=message):
            check_convexity_condition(P, *samples)


# numbers as text or objects, which numpy's float conversion read as numbers
NUMERIC_TEXT = [["1"], ["-1", "2.5"], [b"1"], np.array(["0.5"], dtype=object)]


@pytest.mark.parametrize("bad", [[[1.0], [1.0, 2.0]], "ab", ["a", 1.0], {"a": 1.0}] + NUMERIC_TEXT)
@pytest.mark.parametrize("position", range(3))
def test_convexity_samples_that_are_not_numbers_are_rejected(bad, position):
    # a ragged list or a string raised numpy's ValueError
    samples = [[0.0], [-1.0, 1.0], [0.5]]
    samples[position] = bad
    name = ("x_samples", "r_samples", "gamma_samples")[position]
    P = VariationalProblem(make_harmonic(10), 0.0, 1.0, parse_lagrangian("r^2 - r^4"), 0.0, 0.0)
    with pytest.raises(InvalidParameter, match=f"^{name} must be a nonempty 1-d sequence of finite numbers$"):
        check_convexity_condition(P, *samples)


def test_convexity_gammas_at_the_ends_of_the_unit_interval_are_accepted():
    P = VariationalProblem(make_harmonic(50), 0.0, 1.0, parse_lagrangian("r^2 + x^2"), 0.0, 0.0)
    assert check_convexity_condition(P, [0.0], [-1.0, 1.0], [0.0, 1.0]).ok


class TestScan:
    def test_zero_trajectory_on_harmonic(self, harmonic_problem):
        kappa = harmonic_problem.scale.kappa_points(0.0, 1.0)
        violations = weierstrass_scan(
            harmonic_problem, harmonic_problem.zero_trajectory(), q_grid=[-2.0, 2.0]
        )
        assert len(violations) == 2 * len(kappa)
        assert np.all(np.abs(violations.E + 12.0) <= 1e-9)
        assert set(kinds(violations)) == {SlopeKind.TWO_SIDED}
        # scan order: one row per t, so by t, and by q in the grid's order within it
        keys = list(zip(violations.t.tolist(), violations.q.tolist()))
        assert keys == sorted(keys)

    def test_extremal_of_quadratic_is_clean(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2"), 0.0, 4.0
        )
        x = GridFunction.from_callable(P.scale, lambda t: t)
        assert len(weierstrass_scan(P, x, q_grid=np.linspace(-10, 10, 41))) == 0

    def test_diagonal_grid_is_empty(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2 - r^4"), 0.0, 4.0
        )
        x = GridFunction.from_callable(P.scale, lambda t: t)
        assert len(weierstrass_scan(P, x, q_grid=[1.0])) == 0  # q equals the slope everywhere

    def test_break_points_scan_both_sides(self):
        ts = make_dense(0.0, 1.0, 10)
        P = VariationalProblem(ts, 0.0, 1.0, parse_lagrangian("0 - r^2"), 0.0, 0.0)
        x = GridFunction.from_callable(ts, lambda t: abs(t - 0.5), break_points=(0.5,))
        violations = weierstrass_scan(P, x, q_grid=[5.0])
        at_break = violations.t == 0.5
        assert kinds(violations, at_break) == [SlopeKind.LEFT, SlopeKind.RIGHT]
        assert violations.r[at_break] == pytest.approx([-1.0, 1.0], abs=1e-6)

    def test_left_dense_window_end_uses_left_limit(self):
        # the window end takes x(t1), also when scale points follow the window
        for ts in (make_dense(0.0, 1.0, 10), union(make_dense(0.0, 1.0, 10), make_points([2.0]))):
            P = VariationalProblem(ts, 0.0, 1.0, parse_lagrangian("0 - r^2"), 0.0, 1.0)
            x = GridFunction.from_callable(ts, lambda t: t if t <= 1.0 else 7.0)
            violations = weierstrass_scan(P, x, q_grid=[4.0])
            end = violations.t == 1.0
            assert kinds(violations, end) == [SlopeKind.LEFT]
            assert violations.x_sigma[end].tolist() == [1.0]

    def test_break_at_the_scale_minimum(self):
        ts = make_dense(0.0, 1.0, 10)
        P = VariationalProblem(ts, 0.0, 1.0, parse_lagrangian("0 - r^2"), 0.0, 1.0)
        x = GridFunction.from_callable(ts, lambda t: t, break_points=(0.0,))
        violations = weierstrass_scan(P, x, q_grid=[4.0])
        assert kinds(violations, violations.t == 0.0) == [SlopeKind.RIGHT]
        report = classify_candidate(P, x, q_grid=[4.0])
        assert report.verdict is Verdict.NECESSARY_CONDITION_VIOLATED

    def test_left_limit_at_a_dense_run_end(self):
        # the dense run [0, 1] ends at a right-scattered node: the functional
        # closes its last panel with (1, x(1), r-), so the scan checks that row
        ts = union(make_dense(0.0, 1.0, 10), make_points([2.0]))
        P = VariationalProblem(ts, 0.0, 2.0, parse_lagrangian("0 - r^2"), 0.0, 3.0)
        x = GridFunction.from_callable(ts, lambda t: t if t <= 1.0 else 3.0)
        violations = weierstrass_scan(P, x, q_grid=[4.0])
        at_join = violations.t == 1.0
        assert list(zip(kinds(violations, at_join), violations.x_sigma[at_join])) == [
            (SlopeKind.LEFT, 1.0),
            (SlopeKind.TWO_SIDED, 3.0),
        ]
        r = violations.r[at_join]
        assert r[0] == pytest.approx(1.0, abs=1e-12)
        assert r[1] == 2.0
        assert observed_slopes(P, x).size == 12  # 11 nodes of [0, 2) plus the left limit

    def test_overflowing_excess_raises(self):
        P = VariationalProblem(
            make_harmonic(5), 0.0, 1.0, parse_lagrangian("1e308*sin(r)"), 0.0, 0.0
        )
        # E = f(q) - (q - r) f_r at r = 0 overflows first at the first row, q = -2.5
        with pytest.raises(DomainError, match=r"excess of .* at t=0\.0, x=0\.0, r=0\.0, q=-2\.5$"):
            weierstrass_scan(P, P.zero_trajectory(), q_grid=[-2.5, 0.0, 2.5])
        # with slopes 0 and pi, (q - r) f_r overflows at (t=0, q=-2.5) and (t=1, q=0.5);
        # the first in row order, then q order, is named
        P = VariationalProblem(
            make_points([0.0, 1.0, 2.0]), 0.0, 2.0, P.lagrangian, 0.0, np.pi
        )
        x = GridFunction(P.scale, np.array([0.0, 0.0, np.pi]))
        with pytest.raises(DomainError, match=r"at t=0\.0, x=0\.0, r=0\.0, q=-2\.5$"):
            weierstrass_scan(P, x, q_grid=[0.5, -2.5])
        with pytest.raises(DomainError, match=r"at t=1\.0, x=3\.14159\d*, r=3\.14159\d*, q=0\.5$"):
            weierstrass_scan(P, x, q_grid=[0.5, 1.0])

    def test_an_overflow_before_a_later_domain_error_is_named_first(self):
        # the log fails at t = 2, but a loop over the rows meets the overflow at t = 0
        L = parse_lagrangian("1e308*sin(r) + log(1.5 - t)")
        P = VariationalProblem(make_points([0.0, 1.0, 2.0, 3.0]), 0.0, 3.0, L, 0.0, 0.0)
        message = (
            r"^overflow in the excess of '1e308\*sin\(r\) \+ log\(1\.5 - t\)' "
            r"at t=0\.0, x=0\.0, r=0\.0, q=-2\.5$"
        )
        with pytest.raises(DomainError, match=message):
            weierstrass_scan(P, P.zero_trajectory(), q_grid=[-2.5])
        with pytest.raises(DomainError, match=message):
            excess(L, 0.0, 0.0, 0.0, -2.5)

    def test_convex_integrand_never_violates(self, rng):
        # excess of an integrand convex in the slope is a perfect square here
        P = VariationalProblem(
            make_uniform(0.0, 6.0, 1.0), 0.0, 6.0, parse_lagrangian("r^2 + x*r"), 0.0, 3.0
        )
        for _ in range(10):
            vals = rng.uniform(-2, 2, 7)
            vals[0], vals[-1] = 0.0, 3.0
            x = GridFunction(P.scale, vals)
            assert len(weierstrass_scan(P, x, q_grid=np.linspace(-8, 8, 33), tol=1e-10)) == 0


class TestExcessTable:
    @pytest.fixture
    def table(self):
        ts = make_dense(0.0, 1.0, 10)
        P = VariationalProblem(ts, 0.0, 1.0, parse_lagrangian("0 - r^2"), 0.0, 0.0)
        x = GridFunction.from_callable(ts, lambda t: abs(t - 0.5), break_points=(0.5,))
        return weierstrass_scan(P, x, q_grid=[-5.0, 5.0])

    def test_columns(self, table):
        assert isinstance(table, ExcessTable)
        for name, dtype in [("t", float), ("x_sigma", float), ("r", float), ("q", float),
                            ("E", float), ("kind", np.int8)]:
            column = getattr(table, name)
            assert column.dtype == dtype and column.shape == (len(table),)

    def test_rows_come_in_scan_order(self, table):
        # at the break t = 0.5 the LEFT row comes before the right-going row,
        # each with the q grid in its own order
        at_break = table.t == 0.5
        assert kinds(table, at_break) == [SlopeKind.LEFT, SlopeKind.LEFT, SlopeKind.RIGHT, SlopeKind.RIGHT]
        assert table.q[at_break].tolist() == [-5.0, 5.0, -5.0, 5.0]
        assert set(kinds(table)) == {SlopeKind.TWO_SIDED, SlopeKind.LEFT, SlopeKind.RIGHT}

    def test_equality_is_by_columns(self, table):
        same = ExcessTable(table.t, table.x_sigma, table.r, table.q, table.E, table.kind)
        assert table == same and not table != same
        assert table != ExcessTable(table.t, table.x_sigma, table.r, table.q, table.E + 1.0, table.kind)
        assert table != list(zip(table.t, table.x_sigma, table.r, table.q, table.E, table.kind))
        with pytest.raises(TypeError):
            hash(table)

    def test_read_only(self, table):
        with pytest.raises(ValueError):
            table.E[0] = 0.0
        with pytest.raises(AttributeError):
            table.E = table.q

    def test_columns_must_agree(self):
        with pytest.raises(InvalidParameter):
            ExcessTable([0.0], [0.0], [0.0], [0.0], [0.0, 1.0], [0])
        empty = ExcessTable([], [], [], [], [], [])
        assert len(empty) == 0 and not empty and repr(empty) == "ExcessTable(0 samples)"


class TestQScaleCase:
    def test_scan_uses_quantum_slopes(self):
        ts = make_geometric(1.0, 16.0, 2.0)
        P = VariationalProblem(ts, 1.0, 16.0, parse_lagrangian("0 - r^2"), 1.0, 16.0)
        x = GridFunction.from_callable(ts, lambda t: t * t)
        violations = weierstrass_scan(P, x, q_grid=[100.0])
        slopes = dict(zip(violations.t.tolist(), violations.r.tolist()))
        assert slopes == {t: 3.0 * t for t in (1.0, 2.0, 4.0, 8.0)}

    def test_functional_is_mu_weighted_sum(self):
        ts = make_geometric(1.0, 16.0, 2.0)
        P = VariationalProblem(ts, 1.0, 16.0, parse_lagrangian("t*r^2"), 1.0, 16.0)
        x = GridFunction.from_callable(ts, lambda t: t)
        from tsvar import functional

        # oracle: sum over {1,2,4,8} of (q-1) t * (t * 1)
        oracle = sum((2.0 - 1.0) * t * t for t in (1.0, 2.0, 4.0, 8.0))
        assert functional(P, x) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("count", [0, -1])
def test_a_q_count_below_one_is_rejected(count, harmonic_problem):
    with pytest.raises(InvalidParameter, match=f"q count {count} is below 1"):
        default_q_grid([0.0, 1.0], count=count)
    x = harmonic_problem.zero_trajectory()
    with pytest.raises(InvalidParameter, match=f"q count {count} is below 1"):
        classify_candidate(harmonic_problem, x, q_count=count)


@pytest.mark.parametrize("count", [2.5, float("nan"), "3", True])
def test_a_q_count_that_is_not_an_integer_is_rejected(count):
    with pytest.raises(InvalidParameter, match=re.escape(f"q count {count!r} is not an integer")):
        default_q_grid([0.0, 1.0], count=count)


def test_a_numpy_integer_q_count_is_accepted():
    assert np.array_equal(default_q_grid([0.0, 1.0], count=np.int64(5)), default_q_grid([0.0, 1.0], 5))


@pytest.mark.parametrize("q_grid", [[], [[-2.0, 2.0]], [[-2, 2], [1, 3]], 2.0])
def test_a_q_grid_that_is_not_a_nonempty_1d_sequence_is_rejected(q_grid, harmonic_problem):
    x = harmonic_problem.zero_trajectory()
    with pytest.raises(InvalidParameter, match="^q_grid must be a nonempty 1-d sequence$"):
        weierstrass_scan(harmonic_problem, x, q_grid)
    with pytest.raises(InvalidParameter, match="^q_grid must be a nonempty 1-d sequence$"):
        classify_candidate(harmonic_problem, x, q_grid=q_grid)


@pytest.mark.parametrize("q_grid", [[[1.0], [1.0, 2.0]], "ab", ["a", 1.0], {"a": 1.0}] + NUMERIC_TEXT)
def test_a_q_grid_that_is_not_numbers_is_rejected(q_grid):
    # a ragged list or a string raised numpy's ValueError
    P = VariationalProblem(make_harmonic(10), 0.0, 1.0, parse_lagrangian("r^2 - r^4"), 0.0, 0.0)
    with pytest.raises(InvalidParameter, match="^q_grid must be a nonempty 1-d sequence$"):
        weierstrass_scan(P, P.zero_trajectory(), q_grid)


@pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf])
def test_a_non_finite_q_grid_is_rejected(q):
    P = VariationalProblem(make_harmonic(10), 0.0, 1.0, parse_lagrangian("r^2 - r^4"), 0.0, 0.0)
    with pytest.raises(InvalidParameter, match="^q_grid must be finite$"):
        weierstrass_scan(P, P.zero_trajectory(), q_grid=[q])
    with pytest.raises(InvalidParameter, match="^q_grid must be finite$"):
        weierstrass_scan(P, P.zero_trajectory(), q_grid=[-1.0, q, 1.0])


def test_q_count_is_bounded_before_allocating():
    assert default_q_grid([0.0, 1.0], count=MAX_Q_COUNT // 100).size == MAX_Q_COUNT // 100 + 2
    with pytest.raises(InvalidParameter, match="exceeds the limit of 1,000,000"):
        default_q_grid([0.0, 1.0], count=10**12)


def test_a_scan_tolerance_must_be_a_nonnegative_number():
    P = VariationalProblem(make_harmonic(10), 0.0, 1.0, parse_lagrangian("r^2 - r^4"), 0.0, 0.0)
    zero = P.zero_trajectory()
    assert len(weierstrass_scan(P, zero, q_grid=[-3.0, 3.0])) == 20
    # E < -nan holds nowhere, so a NaN tolerance would hide all 20 violations
    for tol in (-1.0, float("nan"), float("inf"), "a", None, True):
        with pytest.raises(InvalidParameter, match="tol must be nonnegative"):
            weierstrass_scan(P, zero, q_grid=[-3.0, 3.0], tol=tol)


@pytest.mark.parametrize("scan_tol", [-1.0, float("nan"), "a", None])
def test_a_classify_scan_tolerance_must_be_a_nonnegative_number(scan_tol):
    P = VariationalProblem(make_harmonic(10), 0.0, 1.0, parse_lagrangian("r^2 - r^4"), 0.0, 0.0)
    with pytest.raises(InvalidParameter, match="^scan_tol must be nonnegative and finite"):
        classify_candidate(P, P.zero_trajectory(), scan_tol=scan_tol)


@pytest.mark.parametrize("slopes", [[[1.0], [1.0, 2.0]], "ab", None, [], ["1"], 1.0])
def test_default_q_grid_slopes_that_are_not_numbers_are_rejected(slopes):
    with pytest.raises(InvalidParameter, match="^slopes must be a nonempty 1-d sequence of numbers$"):
        default_q_grid(slopes)


def test_a_default_q_grid_beyond_the_float_range_is_an_error():
    with pytest.raises(InvalidParameter, match="slopes up to 1e[+]308 overflow the default q grid"):
        default_q_grid([-1e308, 1e308])


def test_a_default_q_grid_spans_slopes_whose_squares_overflow():
    # np.std squares the slopes, which overflows above about 1.3e154
    grid = default_q_grid([-1e200, 1e200])
    assert grid[[0, -1]] == pytest.approx([-6e200, 6e200], rel=1e-15)
    assert {-1e200, 1e200} <= set(grid.tolist()) and np.isfinite(grid).all()


def test_convexity_x_samples_span_the_float_range():
    samples = weierstrass._default_x_samples(np.array([-1e308, 3.0, 1e308]))
    assert samples.tolist() == [-1e308, 0.0, 1e308]


class TestClassification:
    def test_consistent_verdict_for_quadratic_extremal(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2"), 0.0, 4.0
        )
        x = solve_el_discrete(P).trajectory
        report = classify_candidate(P, x, q_grid=np.linspace(-10, 10, 41))
        assert report.verdict is Verdict.CONSISTENT_WITH_STRONG_MIN
        assert report.el_max_residual <= 1e-10
        assert report.convexity_ok
        assert len(report.weierstrass_violations) == 0

    def test_hypothesis_not_met_for_quartic(self, harmonic_problem):
        report = classify_candidate(
            harmonic_problem, harmonic_problem.zero_trajectory(), q_grid=[-2.0, 2.0]
        )
        assert report.verdict is Verdict.HYPOTHESIS_NOT_MET
        assert not report.convexity_ok
        assert report.convexity_counterexample is not None
        # scan results still reported as informational
        assert len(report.weierstrass_violations) > 0

    def test_violated_verdict_when_hypothesis_sampled_convex(self):
        # f is convex for |r| <= sqrt(2/0.012) ~ 12.9, but large comparison
        # slopes expose E < 0; on a dense scale every row is right-dense or a
        # left limit, where that refutes the candidate
        P = VariationalProblem(
            make_dense(0.0, 1.0, 50),
            0.0,
            1.0,
            parse_lagrangian("r^2 - 0.001*r^4"),
            0.0,
            0.0,
        )
        report = classify_candidate(P, P.zero_trajectory(), q_grid=np.linspace(-40, 40, 41))
        assert report.verdict is Verdict.NECESSARY_CONDITION_VIOLATED
        assert report.convexity_ok and report.convexity_counterexample is None
        assert len(report.weierstrass_violations) == 510

    def test_a_violation_on_a_right_scattered_row_refutes_the_hypothesis(self):
        # the sampled sweep passes on [-2, 2], but at a right-scattered t the
        # hypothesis is convexity in r, which E(t, 0, 0, +-40) < 0 refutes
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0),
            0.0,
            4.0,
            parse_lagrangian("r^2 - 0.001*r^4"),
            0.0,
            0.0,
        )
        zero = P.zero_trajectory()
        default = weierstrass._default_r_samples(np.zeros(1))
        assert check_convexity_condition(P, [-1.0, 0.0, 1.0], default, weierstrass.DEFAULT_GAMMAS).ok
        report = classify_candidate(P, zero, q_grid=np.linspace(-40, 40, 41))
        assert report.verdict is Verdict.HYPOTHESIS_NOT_MET
        assert not report.convexity_ok
        assert len(report.weierstrass_violations) == 40
        cx = report.convexity_counterexample
        v = report.weierstrass_violations
        assert (cx.t, cx.x, cx.r1, cx.r2) == (v.t[0], v.x_sigma[0], v.r[0], v.q[0]) == (0.0, 0.0, 0.0, -40.0)
        f = P.lagrangian.eval
        assert cx.gamma == 0.5 and cx.lhs == f(0.0, 0.0, -20.0) == 240.0
        assert cx.rhs == 0.5 * f(0.0, 0.0, 0.0) + 0.5 * f(0.0, 0.0, -40.0) == -480.0

    def test_the_refuting_midpoint_moves_towards_r(self):
        # a dip at r = 0.5 puts the gamma = 1/2 midpoint below the chord from
        # r = 0 to q = 1; at gamma = 3/4 it lies above it
        lagr = parse_lagrangian("r^2 - exp(-400*(r-0.5)^2) - 1.5*exp(-400*(r-1)^2)")
        assert excess(lagr, 0.0, 0.0, 0.0, 1.0) == pytest.approx(-0.5)
        cx = weierstrass._tangent_counterexample(lagr, 0.0, 0.0, 0.0, 1.0)
        assert cx.gamma == 0.75 and (cx.r1, cx.r2) == (0.0, 1.0)
        assert cx.lhs == lagr.eval(0.0, 0.0, 0.25)
        assert cx.lhs > cx.rhs + weierstrass.CONVEXITY_TOL

    def test_a_midpoint_where_f_fails_is_skipped(self):
        # E(0, 0, 1, -1) = -8, and the gamma = 1/2 midpoint is r = 0, where 3/r^2 fails
        lagr = parse_lagrangian("r^2 + 3/r^2")
        assert excess(lagr, 0.0, 0.0, 1.0, -1.0) == -8.0
        cx = weierstrass._tangent_counterexample(lagr, 0.0, 0.0, 1.0, -1.0)
        assert (cx.gamma, cx.lhs, cx.rhs) == (0.75, 12.25, 4.0)

    def test_a_refuting_midpoint_within_the_tolerance_falls_back_to_the_largest_excess(self):
        # E = -1e-12: no midpoint lies above the chord by CONVEXITY_TOL
        lagr = parse_lagrangian("-1e-12*r^2")
        cx = weierstrass._tangent_counterexample(lagr, 0.0, 0.0, 0.0, 1.0)
        assert cx.gamma == 0.5 and cx.lhs - cx.rhs == pytest.approx(2.5e-13)

    def test_a_left_limit_at_a_right_scattered_node_carries_the_condition(self):
        # the LEFT row at t = 1 closes the dense run [0, 1] with x(1) = 1, where
        # f bends down for large slopes; the right-going row at the scattered
        # t = 1 has x(sigma(1)) = 0, where f = r^2 is convex
        ts = union(make_dense(0.0, 1.0, 10), make_points([2.0]))
        x = GridFunction.from_callable(ts, lambda t: t if t <= 1.0 else 0.0, break_points=(1.0,))
        P = VariationalProblem(ts, 0.0, 2.0, parse_lagrangian("r^2 - 0.001*x*r^4"), 0.0, 0.0)
        report = classify_candidate(P, x, q_grid=[-40.0, 40.0])
        v = report.weierstrass_violations
        assert report.convexity_ok
        assert list(SlopeKind)[v.kind[-1]] is SlopeKind.LEFT and v.t[-1] == 1.0
        assert v.t.max() == 1.0
        assert report.verdict is Verdict.NECESSARY_CONDITION_VIOLATED

    def test_left_limit_pairs_with_x_at_t_not_x_sigma(self):
        # at the right-scattered break t = 1 the left limit r- = 5 belongs
        # with x(1) = 0, where E(1, 0, 5, q) = (q - 5)^2 >= 0; pairing it
        # with x(sigma(1)) = 0.01 would report a false violation
        ts = union(make_dense(0.0, 1.0, 10), make_points([2.0]))
        P = VariationalProblem(ts, 0.0, 2.0, parse_lagrangian("r^2 - x*r^4"), -5.0, 0.01)
        x = GridFunction.from_callable(
            ts, lambda t: -5.0 * (1.0 - t) if t <= 1.0 else 0.01, break_points=(1.0,)
        )
        report = classify_candidate(P, x, q_grid=np.linspace(-3.0, 3.0, 13))
        assert report.convexity_ok
        assert len(report.weierstrass_violations) == 0
        assert report.verdict is Verdict.CONSISTENT_WITH_STRONG_MIN

    def test_nonextremal_reports_residual(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2"), 0.0, 16.0
        )
        x = GridFunction.from_callable(P.scale, lambda t: t * t)
        report = classify_candidate(P, x)
        assert report.el_max_residual > 0.0
        assert report.verdict is Verdict.CONSISTENT_WITH_STRONG_MIN  # verdict ignores EL

    def test_default_q_grid_contains_slopes(self):
        grid = default_q_grid([1.0, 2.0, -0.5])
        for s in (1.0, 2.0, -0.5):
            assert np.any(grid == s)
        assert grid.size >= 41

    def test_default_q_grid_degenerate_slopes(self):
        grid = default_q_grid([2.0, 2.0, 2.0])
        assert grid.min() == pytest.approx(-3.0)
        assert grid.max() == pytest.approx(7.0)


PINNED_WINDOWS = {
    "dense-uniform": (
        lambda: union(make_dense(0.0, 1.0, 8), make_uniform(1.0, 2.0, 0.25)), 0.0, 2.0,
    ),
    "dense-harmonic": (lambda: union(make_harmonic(6), make_dense(1.0, 2.0, 8)), 0.0, 2.0),
    "window-inside-dense": (
        lambda: union(make_points([-1.0, -0.5]), make_dense(0.0, 1.0, 10)), -1.0, 0.6,
    ),
}


@pytest.mark.parametrize(
    "case, functional_value, weak, el_max, el_sum, el_count, scan",
    [
        (
            "dense-uniform",
            18.61163440075671,
            5.480136707767317,
            10.53752825311348,
            -21.12013534492293,
            11,
            (36, 27.0, 53.62473367406943, 62.87963748870453, -39.867568658867604),
        ),
        (
            "dense-harmonic",
            18.321683990838448,
            5.903415750115949,
            13.647559278337312,
            -61.21751037853694,
            14,
            (45, 44.85, 81.79604181888293, 76.23781969909486, -48.66152987094491),
        ),
        (
            "window-inside-dense",
            1.6920999034018305,
            3.531727828921588,
            2.8191682275567995,
            -2.678610940195942,
            8,
            (24, 4.800000000000001, 13.660788924520181, 48.06416286516646, -33.29318985423957),
        ),
    ],
)
def test_mixed_windows_keep_their_values(
    case, functional_value, weak, el_max, el_sum, el_count, scan
):
    """Pinned outputs of the per-point implementation on mixed windows."""
    make, t0, t1 = PINNED_WINDOWS[case]
    ts = make()
    x = GridFunction.from_callable(ts, lambda t: np.sin(2 * t) + t * t)
    P = VariationalProblem(
        ts, t0, t1, parse_lagrangian("sin(r) + x*r + t*x^2"), x.value_at(t0), x.value_at(t1)
    )
    assert functional(P, x) == pytest.approx(functional_value, rel=1e-12)
    assert norm_weak(x, t0, t1) == pytest.approx(weak, rel=1e-12)
    res = el_residual(P, x).values
    assert res.size == el_count
    assert float(np.max(np.abs(res))) == pytest.approx(el_max, rel=1e-12)
    assert float(res.sum()) == pytest.approx(el_sum, rel=1e-12)
    violations = weierstrass_scan(P, x, q_grid=[-1.0, 0.5, 2.0])
    if case == "dense-uniform":
        # leave out the left limit at the end of the dense run, which the
        # per-point scan did not visit (test_left_limit_at_a_dense_run_end)
        keep = ~((violations.t == 1.0) & (violations.kind == KINDS.index(SlopeKind.LEFT)))
    else:
        keep = np.ones(len(violations), dtype=bool)
    got = (
        int(keep.sum()),
        sum(violations.t[keep].tolist()),
        sum(violations.x_sigma[keep].tolist()),
        sum(violations.r[keep].tolist()),
        sum(violations.E[keep].tolist()),
    )
    assert got == pytest.approx(scan, rel=1e-12)
