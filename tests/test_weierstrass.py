"""Excess function, convexity hypothesis, scans, and candidate classification."""

import numpy as np
import pytest

from tsvar import (
    DomainError,
    ExcessSample,
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
        assert report.ok and sizes[0] == 1 and 4 * sum(sizes) == report.checks  # 4 checks a point


class TestScan:
    def test_zero_trajectory_on_harmonic(self, harmonic_problem):
        kappa = harmonic_problem.scale.kappa_points(0.0, 1.0)
        violations = weierstrass_scan(
            harmonic_problem, harmonic_problem.zero_trajectory(), q_grid=[-2.0, 2.0]
        )
        assert len(violations) == 2 * len(kappa)
        assert all(abs(v.E + 12.0) <= 1e-9 for v in violations)
        assert all(v.slope_kind is SlopeKind.TWO_SIDED for v in violations)
        assert violations[0]._fields == ("t", "x_sigma", "r", "q", "E", "slope_kind")
        with pytest.raises(AttributeError):
            violations[0].E = 0.0
        # deterministic order
        keys = [(v.t, v.q) for v in violations]
        assert keys == sorted(keys)

    def test_extremal_of_quadratic_is_clean(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2"), 0.0, 4.0
        )
        x = GridFunction.from_callable(P.scale, lambda t: t)
        assert weierstrass_scan(P, x, q_grid=np.linspace(-10, 10, 41)) == []

    def test_diagonal_grid_is_empty(self):
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0), 0.0, 4.0, parse_lagrangian("r^2 - r^4"), 0.0, 4.0
        )
        x = GridFunction.from_callable(P.scale, lambda t: t)
        assert weierstrass_scan(P, x, q_grid=[1.0]) == []  # q equals the slope everywhere

    def test_break_points_scan_both_sides(self):
        ts = make_dense(0.0, 1.0, 10)
        P = VariationalProblem(ts, 0.0, 1.0, parse_lagrangian("0 - r^2"), 0.0, 0.0)
        x = GridFunction.from_callable(ts, lambda t: abs(t - 0.5), break_points=(0.5,))
        violations = weierstrass_scan(P, x, q_grid=[5.0])
        at_break = [v for v in violations if v.t == 0.5]
        assert {v.slope_kind for v in at_break} == {SlopeKind.LEFT, SlopeKind.RIGHT}
        assert {round(v.r, 6) for v in at_break} == {-1.0, 1.0}

    def test_left_dense_window_end_uses_left_limit(self):
        # the window end takes x(t1), also when scale points follow the window
        for ts in (make_dense(0.0, 1.0, 10), union(make_dense(0.0, 1.0, 10), make_points([2.0]))):
            P = VariationalProblem(ts, 0.0, 1.0, parse_lagrangian("0 - r^2"), 0.0, 1.0)
            x = GridFunction.from_callable(ts, lambda t: t if t <= 1.0 else 7.0)
            violations = weierstrass_scan(P, x, q_grid=[4.0])
            end = [v for v in violations if v.t == 1.0]
            assert len(end) == 1 and end[0].slope_kind is SlopeKind.LEFT
            assert end[0].x_sigma == 1.0

    def test_break_at_the_scale_minimum(self):
        ts = make_dense(0.0, 1.0, 10)
        P = VariationalProblem(ts, 0.0, 1.0, parse_lagrangian("0 - r^2"), 0.0, 1.0)
        x = GridFunction.from_callable(ts, lambda t: t, break_points=(0.0,))
        at_start = [v for v in weierstrass_scan(P, x, q_grid=[4.0]) if v.t == 0.0]
        assert [v.slope_kind for v in at_start] == [SlopeKind.RIGHT]
        report = classify_candidate(P, x, q_grid=[4.0])
        assert report.verdict is Verdict.NECESSARY_CONDITION_VIOLATED

    def test_left_limit_at_a_dense_run_end(self):
        # the dense run [0, 1] ends at a right-scattered node: the functional
        # closes its last panel with (1, x(1), r-), so the scan checks that row
        ts = union(make_dense(0.0, 1.0, 10), make_points([2.0]))
        P = VariationalProblem(ts, 0.0, 2.0, parse_lagrangian("0 - r^2"), 0.0, 3.0)
        x = GridFunction.from_callable(ts, lambda t: t if t <= 1.0 else 3.0)
        at_join = [v for v in weierstrass_scan(P, x, q_grid=[4.0]) if v.t == 1.0]
        assert [(v.slope_kind, v.x_sigma) for v in at_join] == [
            (SlopeKind.LEFT, 1.0),
            (SlopeKind.TWO_SIDED, 3.0),
        ]
        assert at_join[0].r == pytest.approx(1.0, abs=1e-12)
        assert at_join[1].r == 2.0
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

    def test_convex_integrand_never_violates(self, rng):
        # excess of an integrand convex in the slope is a perfect square here
        P = VariationalProblem(
            make_uniform(0.0, 6.0, 1.0), 0.0, 6.0, parse_lagrangian("r^2 + x*r"), 0.0, 3.0
        )
        for _ in range(10):
            vals = rng.uniform(-2, 2, 7)
            vals[0], vals[-1] = 0.0, 3.0
            x = GridFunction(P.scale, vals)
            assert weierstrass_scan(P, x, q_grid=np.linspace(-8, 8, 33), tol=1e-10) == []


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

    def test_an_index_gives_a_sample_of_python_values(self, table):
        for i in (0, 5, -1, len(table) - 1, np.int64(3)):
            v = table[i]
            assert type(v) is ExcessSample and type(v.slope_kind) is SlopeKind
            assert all(type(value) is float for value in v[:5])
            assert v == tuple(table)[int(i)]
        for i in (len(table), -len(table) - 1):
            with pytest.raises(IndexError):
                table[i]
        with pytest.raises(TypeError):
            table[1.0]

    def test_a_slice_gives_a_table(self, table):
        head = table[:5]
        assert isinstance(head, ExcessTable) and len(head) == 5
        assert head == list(table)[:5]
        assert table[::-3] == list(table)[::-3]
        assert table[len(table):] == [] and not table[len(table):]

    def test_equality(self, table):
        samples = list(table)
        assert table == samples and table == tuple(samples) and samples == table
        assert table == table[:]
        assert table != samples[:-1] and table != samples[::-1]
        assert table != [v._replace(E=v.E + 1.0) for v in samples]
        assert (table == 3) is False and table != "two-sided"
        assert hash(table) == hash(tuple(samples))
        kinds = {v.slope_kind for v in table}
        assert kinds == {SlopeKind.TWO_SIDED, SlopeKind.LEFT, SlopeKind.RIGHT}

    def test_read_only(self, table):
        with pytest.raises(ValueError):
            table.E[0] = 0.0
        with pytest.raises(AttributeError):
            table.E = table.q

    def test_columns_must_agree(self):
        with pytest.raises(InvalidParameter):
            ExcessTable([0.0], [0.0], [0.0], [0.0], [0.0, 1.0], [0])
        empty = ExcessTable([], [], [], [], [], [])
        assert empty == [] and len(empty) == 0 and list(empty) == []


class TestQScaleCase:
    def test_scan_uses_quantum_slopes(self):
        ts = make_geometric(1.0, 16.0, 2.0)
        P = VariationalProblem(ts, 1.0, 16.0, parse_lagrangian("0 - r^2"), 1.0, 16.0)
        x = GridFunction.from_callable(ts, lambda t: t * t)
        violations = weierstrass_scan(P, x, q_grid=[100.0])
        slopes = {v.t: v.r for v in violations}
        assert slopes == {t: 3.0 * t for t in (1.0, 2.0, 4.0, 8.0)}

    def test_functional_is_mu_weighted_sum(self):
        ts = make_geometric(1.0, 16.0, 2.0)
        P = VariationalProblem(ts, 1.0, 16.0, parse_lagrangian("t*r^2"), 1.0, 16.0)
        x = GridFunction.from_callable(ts, lambda t: t)
        from tsvar import functional

        # oracle: sum over {1,2,4,8} of (q-1) t * (t * 1)
        oracle = sum((2.0 - 1.0) * t * t for t in (1.0, 2.0, 4.0, 8.0))
        assert functional(P, x) == pytest.approx(oracle, abs=1e-12)


def test_q_count_is_bounded_before_allocating():
    assert default_q_grid([0.0, 1.0], count=MAX_Q_COUNT // 100).size == MAX_Q_COUNT // 100 + 2
    with pytest.raises(InvalidParameter, match="exceeds the limit of 1,000,000"):
        default_q_grid([0.0, 1.0], count=10**12)


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
        assert report.weierstrass_violations == ()

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
        # f is convex for |r| <= sqrt(2/0.012) ~ 12.9, so the default samples
        # pass, but large comparison slopes still expose E < 0
        P = VariationalProblem(
            make_uniform(0.0, 4.0, 1.0),
            0.0,
            4.0,
            parse_lagrangian("r^2 - 0.001*r^4"),
            0.0,
            0.0,
        )
        report = classify_candidate(P, P.zero_trajectory(), q_grid=np.linspace(-40, 40, 41))
        assert report.verdict is Verdict.NECESSARY_CONDITION_VIOLATED
        assert report.convexity_ok
        assert len(report.weierstrass_violations) > 0

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
        assert report.weierstrass_violations == ()
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
        violations = [v for v in violations if not (v.t == 1.0 and v.slope_kind is SlopeKind.LEFT)]
    got = (
        len(violations),
        sum(v.t for v in violations),
        sum(v.x_sigma for v in violations),
        sum(v.r for v in violations),
        sum(v.E for v in violations),
    )
    assert got == pytest.approx(scan, rel=1e-12)
