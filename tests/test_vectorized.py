"""Array evaluation against row-by-row loops of float calls.

Each array consumer is compared with a loop over the same rows, one float
call per row: the values, the order of the results, and which error is
raised where a loop would fail. A float call is a one-row evaluation of the
same array walker, and the first tests pin that.
"""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsvar import (
    DomainError,
    GridFunction,
    NonDifferentiablePoint,
    TsvarError,
    VariationalProblem,
    check_convexity_condition,
    el_residual,
    excess,
    functional,
    make_dense,
    make_geometric,
    make_harmonic,
    make_points,
    make_uniform,
    parse_lagrangian,
    union,
    weierstrass_scan,
)
from tsvar import weierstrass
from tsvar.expressions import (
    VARIABLES,
    BinOp,
    Call,
    Lagrangian,
    Neg,
    Num,
    Var,
    derivative,
    eval_rows,
    evaluate,
)
from tsvar.variational import _rows
from tsvar.weierstrass import ConvexityCounterexample, ConvexityReport
from conftest import SMOOTH_TEMPLATES, random_discrete_scale

# -- row-loop references: one float call per row --------------------------------


def outcomes(fn, rows):
    """fn over rows in order: (results before the first error, its class or None)."""
    done = []
    for row in rows:
        try:
            done.append(fn(*row))
        except TsvarError as e:
            return done, type(e)
    return done, None


def convexity_loop(problem, x_samples, r_samples, gamma_samples, tol=1e-10):
    ts, lagr = problem.scale, problem.lagrangian
    mu = ts.mu_values()
    i0, ik = ts.kappa_range(problem.t0, problem.t1)
    checks = 0
    for i in i0 + np.flatnonzero(mu[i0 : ik + 1]):
        t = float(ts.points[i])
        for xv in x_samples:
            for r1 in r_samples:
                for r2 in r_samples:
                    if r1 == r2:
                        continue
                    f1 = lagr.eval(t, xv, r1)
                    f2 = lagr.eval(t, xv, r2)
                    for g in gamma_samples:
                        checks += 1
                        mid = g * r1 + (1.0 - g) * r2
                        lhs = lagr.eval(t, xv, mid)
                        rhs = g * f1 + (1.0 - g) * f2
                        if lhs > rhs + tol:
                            cx = ConvexityCounterexample(
                                t, float(xv), float(r1), float(r2), float(g), float(lhs), float(rhs)
                            )
                            return ConvexityReport(False, cx, checks)
    return ConvexityReport(True, None, checks)


def scan_loop(problem, x, q_grid, tol=1e-9):
    """The violations in loop order, rows outside and q inside: (t, x_sigma, r, q, E, kind) each."""
    t, xs, r, kind, _ = _rows(problem, x)
    found = []
    for ti, xi, ri, ki in zip(t.tolist(), xs.tolist(), r.tolist(), kind.tolist()):
        for q in q_grid:
            e = excess(problem.lagrangian, ti, xi, ri, float(q))
            if e < -tol:
                found.append((ti, xi, ri, float(q), e, ki))
    return found


def assert_same_report(got, want):
    """Equal reports; lhs and rhs may differ in the last digits."""
    assert (got.ok, got.checks) == (want.ok, want.checks)
    if want.counterexample is not None:
        g, w = got.counterexample, want.counterexample
        assert (g.t, g.x, g.r1, g.r2, g.gamma) == (w.t, w.x, w.r1, w.r2, w.gamma)
        assert (g.lhs, g.rhs) == pytest.approx((w.lhs, w.rhs), rel=1e-12, abs=1e-12)


def assert_same_violations(got, want):
    rows = zip(got.t.tolist(), got.x_sigma.tolist(), got.r.tolist(), got.q.tolist(), got.kind.tolist())
    assert list(rows) == [(t, xs, r, q, kind) for t, xs, r, q, _, kind in want]
    np.testing.assert_allclose(got.E, [v[4] for v in want], rtol=1e-9, atol=1e-12)


def row_columns(problem, x):
    t, xs, r, kind, weight = _rows(problem, x)
    return list(zip(t.tolist(), xs.tolist(), r.tolist())), kind, weight


def outcome(fn, *args):
    try:
        return fn(*args), None
    except TsvarError as e:
        return None, type(e)


# -- random expressions over the whole grammar -----------------------------------

_CONSTANTS = st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0, 1e-3, 2.5))
_EXPONENTS = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0))
_LEAVES = st.one_of(st.builds(Num, _CONSTANTS), st.builds(Var, st.sampled_from(VARIABLES)))


def _extend(children):
    exponent = st.one_of(
        st.builds(Num, _EXPONENTS), st.builds(Neg, st.builds(Num, _EXPONENTS)), children
    )
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(("sin", "cos", "exp", "log", "sqrt", "abs")), children),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(BinOp, st.just("^"), children, exponent),
    )


_ASTS = st.recursive(_LEAVES, _extend, max_leaves=8)
# coordinates at the edges of sqrt, log, abs and division, and in between
_COORDINATE = st.one_of(
    st.sampled_from((0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 1e-9, -1e-9)),
    st.floats(-3.0, 3.0, allow_subnormal=False),
)
_ROW = st.tuples(_COORDINATE, _COORDINATE, _COORDINATE)
_ROWS = st.lists(_ROW, min_size=1, max_size=6)


@settings(max_examples=300)
@given(ast=_ASTS, row=_ROW, q=_COORDINATE)
def test_a_float_call_is_a_one_row_array_call(ast, row, q):
    lagr = Lagrangian(ast, ast.to_source())
    where = "at t={!r}, x={!r}, r={!r}".format(*row)
    for method, args, name in (
        (lagr.eval, row, where),
        (lagr.partials, row, where),
        (lagr.second_partials, row, where),
        (lambda *a: excess(lagr, *a), (*row, q), f"{where}, q={q!r}"),
    ):
        want, error = outcome(method, *(np.array([v]) for v in args))
        if error is not None:
            with pytest.raises(error) as info:
                method(*args)
            assert info.value.index == 0
            assert str(info.value).endswith(f" {name}")
            continue
        got = method(*args)
        got, want = (got, want) if isinstance(got, tuple) else ((got,), (want,))
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [float(w[0]).hex() for w in want]


@pytest.mark.parametrize(
    "src, sub",
    [
        ("r + 10^400", "(10.0 ^ 400.0)"),
        ("r + exp(1000)", "exp(1000.0)"),
        ("x*(0-8)^(1/3)", "((0.0 - 8.0) ^ (1.0 / 3.0))"),
    ],
)
def test_a_failing_constant_names_its_sub_expression(src, sub):
    lagr = parse_lagrangian(src)
    for args in ((0.0, 1.0, 2.0), (np.zeros(3), 1.0, np.arange(3.0))):
        for method in (lagr.eval, lagr.partials, lagr.second_partials):
            with pytest.raises(DomainError, match=re.escape(f"in '{sub}' at t=0.0, x=1.0, r=")) as info:
                method(*args)
            assert info.value.index == 0


def test_a_constant_exponent_that_overflows_is_one_domain_error():
    # the exponent is evaluated once, when the partials are derived
    lagr = parse_lagrangian("r^(10^400)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in ((0.0, 1.0, 2.0), (np.zeros(2), 1.0, np.ones(2))):
            with pytest.raises(DomainError, match=r"overflow in '\(10\.0 \^ 400\.0\)'"):
                lagr.partials(*args)


def _magnitude(node, env) -> float:
    """Largest |value| of any sub-expression: the scale its rounding errors live on."""
    own = abs(float(evaluate(node, env)))
    for child in ("arg", "lhs", "rhs", "test"):
        if hasattr(node, child):
            own = max(own, _magnitude(getattr(node, child), env))
    return own


def _assert_rows_close(got, want, scales):
    got, want, scales = (np.asarray(v, dtype=float) for v in (got, want, scales))
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), scales)), (got, want)


@settings(max_examples=400)
@given(ast=_ASTS, rows=_ROWS)
def test_array_eval_and_partials_match_the_scalar_path(ast, rows):
    lagr = Lagrangian(ast, ast.to_source())
    t, x, r = (np.array(column) for column in zip(*rows))
    fx, fr = derivative(ast, "x"), derivative(ast, "r")
    second = [derivative(fx, "x"), derivative(fx, "r"), derivative(fr, "r")]
    # each method with the ASTs it evaluates, whose sub-expressions scale its rounding
    for method, wrap, asts in (
        (lagr.eval, lambda v: (v,), [ast]),
        (lagr.partials, tuple, [ast, fx, fr]),
        (lagr.second_partials, tuple, [ast, fx, fr, *second]),
    ):
        scalar, error = outcomes(method, rows)
        if error is not None:
            with pytest.raises(error) as info:
                method(t, x, r)
            assert info.value.index == len(scalar)  # the first bad row
            continue
        got = wrap(method(t, x, r))
        want = [wrap(v) for v in scalar]
        scales = [
            max(_magnitude(a, {"t": t_, "x": x_, "r": r_}) for a in asts) for t_, x_, r_ in rows
        ]
        for k, column in enumerate(got):
            assert np.shape(column) == t.shape
            _assert_rows_close(column, [w[k] for w in want], scales)


def excess_loop(lagr, t, x, r, q):
    """E at one row through float calls: f at q, then f and f_r at r."""
    f_at_q = lagr.eval(t, x, q)
    f_at_r = lagr.eval(t, x, r)
    f_r = float(evaluate(derivative(lagr.ast, "r"), {"t": t, "x": x, "r": r}))
    value = f_at_q - f_at_r - (q - r) * f_r
    if not math.isfinite(value):
        raise DomainError("overflow in the excess")
    return value


_QS = (-1.0, 0.0, 0.5, 2.0)


@settings(max_examples=200)
@given(ast=_ASTS, rows=_ROWS)
def test_array_excess_matches_the_scalar_loop(ast, rows):
    lagr = Lagrangian(ast, ast.to_source())
    t, x, r = (np.array(column)[:, None] for column in zip(*rows))
    # the loop runs over rows x q in C order, the order of the array's flat index
    pairs = [(*row, q) for row in rows for q in _QS]
    scalar, error = outcomes(lambda *pair: excess_loop(lagr, *pair), pairs)
    if error is not None:
        with pytest.raises(error) as info:
            excess(lagr, t, x, r, np.array(_QS))
        assert info.value.index == len(scalar)
        return
    got = excess(lagr, t, x, r, np.array(_QS))
    assert got.shape == (len(rows), len(_QS))
    fr = derivative(ast, "r")
    scales = [
        max(
            _magnitude(ast, {"t": t_, "x": x_, "r": q}),
            _magnitude(ast, {"t": t_, "x": x_, "r": r_}),
            abs(q - r_) * _magnitude(fr, {"t": t_, "x": x_, "r": r_}),
        )
        for t_, x_, r_, q in pairs
    ]
    _assert_rows_close(got.ravel(), scalar, scales)


def test_the_scan_evaluates_each_block_once_over_rows_x_q(monkeypatch):
    calls = []

    def spy(fn, env):
        def seen(columns):
            calls.append({k: np.shape(v) for k, v in columns.items()})
            return fn(columns)

        out = eval_rows(seen, env)
        calls.append(out)
        return out

    problem = VariationalProblem(
        make_uniform(0.0, 2.0, 0.25), 0.0, 2.0, parse_lagrangian("r^2 - r^4 + t*x"), 0.0, 0.0
    )
    rows = _rows(problem, problem.zero_trajectory())[0].size
    monkeypatch.setattr(weierstrass, "eval_rows", spy)
    weierstrass_scan(problem, problem.zero_trajectory(), [-1.0, 0.0, 1.0])
    shapes, E = calls
    assert shapes == {"t": (rows, 1), "x": (rows, 1), "r": (rows, 1), "q": (3,)}
    assert E.shape == (rows, 3) and not E.flags.writeable


class TestArrayErrors:
    def test_first_bad_row_wins_over_the_first_bad_node(self):
        # log(t) first fails at row 2, sqrt(r) already at row 1: a row loop meets sqrt first
        lagr = parse_lagrangian("log(t) + sqrt(r)")
        t = np.array([1.0, 1.0, -1.0])
        r = np.array([1.0, -1.0, 1.0])
        with pytest.raises(DomainError, match=r"sqrt.*at t=1\.0, x=0\.0, r=-1\.0") as info:
            lagr.eval(t, 0.0, r)
        assert info.value.index == 1

    def test_class_follows_the_first_bad_row(self):
        # abs at 0 is a NonDifferentiablePoint in the partials; log(t) a DomainError
        lagr = parse_lagrangian("log(t) + abs(r)")
        with pytest.raises(NonDifferentiablePoint):
            lagr.partials(np.array([1.0, -1.0]), 0.0, np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            lagr.partials(np.array([-1.0, 1.0]), 0.0, np.array([1.0, 0.0]))

    def test_constant_failure_fails_every_row(self):
        with pytest.raises(DomainError) as info:
            parse_lagrangian("r + log(0 - 1)").eval(np.zeros(3), 0.0, np.ones(3))
        assert info.value.index == 0

    def test_broadcast_shape_is_kept(self):
        lagr = parse_lagrangian("t + x*r")
        out = lagr.eval(np.arange(3.0)[:, None], 2.0, np.arange(4.0))
        assert out.shape == (3, 4)
        assert out[2, 3] == 2.0 + 2.0 * 3.0
        assert parse_lagrangian("1").eval(np.zeros(5), 0.0, 0.0).shape == (5,)


class TestOverflow:
    @pytest.mark.parametrize("src", ["exp(r)", "r^400", "r^200*r^200", "exp(r)*exp(r) - 1"])
    def test_scalar_and_array_raise_domain_error(self, src):
        lagr = parse_lagrangian(src)
        with pytest.raises(DomainError, match="overflow in"):
            lagr.eval(0.0, 0.0, 1000.0 if "exp" in src else 10.0)
        with pytest.raises(DomainError, match="overflow in") as info:
            lagr.eval(np.zeros(2), 0.0, np.array([1.0, 1000.0 if "exp" in src else 10.0]))
        assert info.value.index == 1

    def test_overflow_is_caught_where_it_happens(self):
        # the product overflows although the whole expression would be 0
        with pytest.raises(DomainError, match=r"'\(r \* r\)'"):
            parse_lagrangian("1/(r*r)").eval(0.0, 0.0, 1e200)

    def test_divisor_underflowing_in_the_partials(self):
        # x^3 is tiny but not 0, and its square underflows to 0; the quotient
        # rule divides by x^3 twice instead, so f_x = -3t/x^4 is finite
        lagr = parse_lagrangian("t/x^3")
        x = 6.7e-68
        assert lagr.partials(1.0, x, 0.0)[1] == pytest.approx(-3.0 / x**4, rel=1e-12)
        _, f_x, _ = lagr.partials(np.full(2, 2.0), np.array([1.0, x]), 0.0)
        np.testing.assert_allclose(f_x, [-6.0, -6.0 / x**4], rtol=1e-12)

    def test_divisor_whose_square_overflows_in_the_partials(self):
        # f_r = -x/r^2 is finite although r*r overflows
        _, f_x, f_r = parse_lagrangian("x/r").partials(0.0, 1.0, 1e200)
        assert (f_x, f_r) == (1e-200, 0.0)

    def test_non_finite_inputs_propagate(self):
        assert parse_lagrangian("r + 1").eval(0.0, 0.0, math.inf) == math.inf


# -- consumers of the sample table ------------------------------------------------

EDGE_TEMPLATES = SMOOTH_TEMPLATES + ("log(t) + r^2", "sqrt(r) + x", "abs(r) - r^4", "r^2/(x - 0.5)")


def random_problem(rng, src, points=None):
    ts = random_discrete_scale(rng) if points is None else make_points(points)
    pts = ts.points
    lagr = parse_lagrangian(src)
    x = GridFunction(ts, rng.uniform(-1.5, 1.5, len(ts)))
    return VariationalProblem(ts, pts[0], pts[-1], lagr, x.values[0], x.values[-1]), x


@pytest.mark.parametrize("src", EDGE_TEMPLATES)
def test_functional_and_el_residual_match_the_row_loop(src, rng):
    for _ in range(5):
        problem, x = random_problem(rng, src)
        rows, kind, weight = row_columns(problem, x)
        values, error = outcomes(problem.lagrangian.eval, rows)
        got, got_error = outcome(functional, problem, x)
        assert got_error is error
        if error is None:
            assert got == pytest.approx(float(np.dot(weight, values)), rel=1e-12, abs=1e-12)
        partials, error = outcomes(problem.lagrangian.partials, rows)
        res, got_error = outcome(el_residual, problem, x)
        assert got_error is error
        if error is None:
            _, fx, fr = np.array(partials).T
            t = np.array([row[0] for row in rows])
            want = (fr[1:] - fr[:-1]) / np.diff(t) - fx[:-1]
            np.testing.assert_allclose(res.values, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("src", EDGE_TEMPLATES)
def test_scan_matches_the_row_loop(src, rng):
    for _ in range(5):
        problem, x = random_problem(rng, src)
        q = np.concatenate((rng.uniform(-3.0, 3.0, 6), [0.0, -0.5]))
        want, error = outcome(scan_loop, problem, x, q)
        got, got_error = outcome(weierstrass_scan, problem, x, q)
        assert got_error is error
        if error is None:
            assert_same_violations(got, want)


@pytest.mark.parametrize(
    "q_grid, error", [([1.0, -1.0], NonDifferentiablePoint), ([-1.0, 1.0], DomainError)]
)
def test_scan_fails_where_excess_would(q_grid, error):
    # excess() evaluates f at q before the partials at r: the q order decides the class
    problem = VariationalProblem(
        make_uniform(0.0, 3.0, 1.0), 0.0, 3.0, parse_lagrangian("sqrt(r)"), 0.0, 0.0
    )
    x = problem.zero_trajectory()
    with pytest.raises(error):
        scan_loop(problem, x, q_grid)
    with pytest.raises(error):
        weierstrass_scan(problem, x, q_grid)


def test_scan_with_a_failing_constant_raises():
    problem = VariationalProblem(
        make_uniform(0.0, 3.0, 1.0), 0.0, 3.0, parse_lagrangian("r + log(0 - 1)"), 0.0, 0.0
    )
    x = problem.zero_trajectory()
    with pytest.raises(DomainError):
        scan_loop(problem, x, [1.0])
    with pytest.raises(DomainError, match="log"):
        weierstrass_scan(problem, x, [1.0])


def test_scan_runs_in_row_blocks(monkeypatch):
    problem = VariationalProblem(
        make_uniform(0.0, 2.0, 0.05), 0.0, 2.0, parse_lagrangian("r^2 - r^4 + t*x"), 0.0, 0.0
    )
    x = GridFunction.from_callable(problem.scale, lambda t: math.sin(3 * t) * t * (2 - t))
    q = np.linspace(-2.0, 2.0, 7)
    whole = weierstrass_scan(problem, x, q)
    monkeypatch.setattr(weierstrass, "_BLOCK_ROWS", 20)  # blocks of two rows
    assert weierstrass_scan(problem, x, q) == whole
    assert_same_violations(whole, scan_loop(problem, x, q))


class TestConvexitySweep:
    def test_domain_error_after_the_first_counterexample_does_not_raise(self):
        points = [0.1, 0.2, 0.7, 0.8, 0.9]
        problem = VariationalProblem(
            make_points(points), 0.1, 0.9, parse_lagrangian("r^2 - r^4 + log(0.5 - t)"), 0.0, 0.0
        )
        args = ([0.0], [-2.0, -1.0, 1.0, 2.0], [0.5])
        report = check_convexity_condition(problem, *args)
        assert_same_report(report, convexity_loop(problem, *args))
        assert not report.ok and report.counterexample.t == 0.1 and report.checks == 1

    def test_domain_error_before_any_counterexample_raises(self):
        problem = VariationalProblem(
            make_points([0.1, 0.2, 0.7]), 0.1, 0.7, parse_lagrangian("r^2 + log(0.15 - t)"), 0.0, 0.0
        )
        args = ([0.0, 1.0], [-1.0, 1.0], [0.5])
        with pytest.raises(DomainError):
            convexity_loop(problem, *args)
        with pytest.raises(DomainError, match=r"at t=0\.2"):
            check_convexity_condition(problem, *args)

    @pytest.mark.parametrize("src", ["r^2 - (t - 1)*r^4", "r^2 - (t - 1)*r^4 + log(1.12 - t)"])
    def test_counterexample_in_a_later_block(self, src, monkeypatch):
        problem = VariationalProblem(
            make_uniform(0.0, 2.0, 0.05), 0.0, 2.0, parse_lagrangian(src), 0.0, 0.0
        )
        args = ([0.0, 1.0], [-2.0, -1.0, 1.0, 2.0], [0.25, 0.5, 0.75])
        per_point = 2 * 12 * 3
        monkeypatch.setattr(weierstrass, "_BLOCK_ROWS", 3 * per_point)  # three points a block
        report = check_convexity_condition(problem, *args)
        assert_same_report(report, convexity_loop(problem, *args))
        assert not report.ok and report.checks > 3 * per_point
        monkeypatch.setattr(weierstrass, "_BLOCK_ROWS", 1)  # one point a block
        assert check_convexity_condition(problem, *args) == report

    def test_repeated_slopes_are_skipped(self):
        problem = VariationalProblem(
            make_uniform(0.0, 2.0, 1.0), 0.0, 2.0, parse_lagrangian("r^2 + log(0 - 1)"), 0.0, 0.0
        )
        # with one distinct slope no pair is checked, so f is never evaluated
        assert check_convexity_condition(problem, [0.0], [1.0, 1.0], [0.5]) == ConvexityReport(
            True, None, 0
        )

    @pytest.mark.parametrize("src", EDGE_TEMPLATES + ("r^2 - (t - 0.5)*r^4", "r^2 + log(0.9 - t)"))
    def test_random_sweeps_match_the_loop(self, src, rng, monkeypatch):
        monkeypatch.setattr(weierstrass, "_BLOCK_ROWS", 64)
        for _ in range(4):
            problem, _ = random_problem(rng, src, np.sort(rng.uniform(0.0, 1.0, 12)))
            args = (
                rng.uniform(-1.0, 1.0, 2).tolist(),
                np.round(rng.uniform(-2.0, 2.0, 4), 1).tolist() + [0.0],
                [0.25, 0.5],
            )
            got, error = outcome(check_convexity_condition, problem, *args)
            want, want_error = outcome(convexity_loop, problem, *args)
            assert error is want_error
            if error is None:
                assert_same_report(got, want)


# Lagrangians without t, some failing on part of the samples
T_FREE = ("r^2", "r^2 - r^4", "x*r + r^4", "sin(r) + cos(x)", "sqrt(r^2 + 1)", "sqrt(r) + x")
T_FREE += ("abs(r) - r^4", "r^2/(x - 0.5)", "exp(r/3)*x^2", "log(x^2 + 1) * r^2")


def sweep_scale(kind: str, size: int):
    if kind == "harmonic":
        return make_harmonic(size)
    if kind == "geometric":
        return make_geometric(1.0, 1.5**size, 1.5)
    if kind == "uniform":
        return make_uniform(0.0, 0.25 * size, 0.25)
    dense = make_dense(0.0, 1.0, 8)  # mixed: a dense span, then isolated points
    return union(dense, make_points(1.0 + 0.3 * np.arange(1, size + 1)))


@settings(max_examples=150)
@given(
    src=st.sampled_from(T_FREE),
    kind=st.sampled_from(("harmonic", "geometric", "uniform", "mixed")),
    size=st.integers(2, 30),
    x_samples=st.lists(st.integers(-8, 8).map(lambda k: k / 4), min_size=1, max_size=3),
    r_samples=st.lists(st.integers(-8, 8).map(lambda k: k / 4), min_size=1, max_size=5),
    gammas=st.lists(st.sampled_from((0.25, 0.5, 0.75)), min_size=1, max_size=3),
)
def test_a_sweep_without_t_checks_one_point_and_matches_the_full_sweep(
    src, kind, size, x_samples, r_samples, gammas
):
    ts = sweep_scale(kind, size)
    problem = VariationalProblem(ts, ts.min, ts.max, parse_lagrangian(src), 0.0, 0.0)
    args = (x_samples, r_samples, gammas)
    sizes = []

    def spy(fn, env):
        sizes.append(np.size(env["t"]))
        return eval_rows(fn, env)

    with mock.patch.object(weierstrass, "eval_rows", spy):
        got, error = outcome(check_convexity_condition, problem, *args)
    # the first right-scattered point alone, and no call without two distinct slopes
    assert sizes == ([1] if len(set(r_samples)) > 1 else [])
    want, want_error = outcome(convexity_loop, problem, *args)
    assert error is want_error
    if error is None:
        assert_same_report(got, want)
    with mock.patch.object(weierstrass, "_varies", return_value=True):  # sweep every point
        assert outcome(check_convexity_condition, problem, *args) == (got, error)
