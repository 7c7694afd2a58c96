"""The overflow check at the nodes where numpy raised a floating-point flag.

A plan checks a node's result for inf and NaN only when numpy raised the
overflow, divide-by-zero or invalid flag computing it. The reference below
is the walker that checks every node, run with numpy's flags off. Both must
give the same values, bit for bit, and the same errors, and neither may
leave numpy's error state changed or let a numpy floating-point exception
or warning out.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsvar import (
    DomainError,
    NonDifferentiablePoint,
    TsvarError,
    UnknownIdentifier,
    VariationalProblem,
    excess,
    make_uniform,
    parse_lagrangian,
    solve_el_discrete,
)
from tsvar import expressions
from tsvar.expressions import (
    VARIABLES,
    BinOp,
    Call,
    Guard,
    Lagrangian,
    Neg,
    Num,
    Var,
    _EVAL_FUNCTIONS,
    _check_finite,
    _located,
    _power,
    check,
    eval_rows,
    evaluate,
)

# -- the reference: a finiteness check at every call and binary node -----------


def reference_eval(node, env):
    kind = node.__class__
    if kind is Num:
        return np.float64(node.value)
    if kind is Var:
        try:
            return env[node.name]
        except KeyError:
            raise UnknownIdentifier(f"variable {node.name!r} is not available here") from None
    if kind is Neg:
        return -reference_eval(node.arg, env)
    if kind is Guard:
        return _reference_guard(node, env)
    if kind is Call:
        lhs = reference_eval(node.arg, env)
    else:
        lhs, rhs = reference_eval(node.lhs, env), reference_eval(node.rhs, env)
    try:
        if kind is Call:
            out = _EVAL_FUNCTIONS[node.fn](lhs)
        elif (op := node.op) == "+":
            out = lhs + rhs
        elif op == "-":
            out = lhs - rhs
        elif op == "*":
            out = lhs * rhs
        elif op == "/":
            if node.origin is None and (rhs.ndim or rhs == 0.0):
                check(rhs == 0.0, DomainError, "division by zero")
            out = lhs / rhs
        else:
            out = _power(lhs, rhs)
        _check_finite(out, (lhs,) if kind is Call else (lhs, rhs))
        return out
    except (DomainError, NonDifferentiablePoint) as e:
        raise _located(e, node) from None


def _reference_guard(node, env):
    test, value = reference_eval(node.test, env), reference_eval(node.arg, env)
    if node.rule == "positive":
        bad = test <= 0.0
    elif node.rule == "nonzero":
        bad = test == 0.0
    else:
        bad = (test == 0.0) & (value != 0.0)
    try:
        check(bad, DomainError if node.rule == "positive" else NonDifferentiablePoint, node.message)
    except TsvarError as e:
        raise _located(e, node) from None
    return value


def _reference_row_fn(ast):
    def fn(columns):
        with np.errstate(all="ignore"):
            return reference_eval(ast, columns)

    return fn


def _outcome(fn, env):
    """(value bytes and shape, or None; error type, message and index, or None) of one call."""
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails the test
        try:
            out, raised = eval_rows(fn, env), None
        except (DomainError, NonDifferentiablePoint) as error:  # with the rows before it
            out, raised = error.before, (type(error), error.args[0], error.index)
    assert np.geterr() == before
    value = None if out is None else (np.shape(out), np.asarray(out, dtype=float).tobytes())
    return value, raised


# -- random grammar ASTs over values at the edges of the float range -----------

_CONSTANTS = st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0, 1e154, 1e308, 5e-324))
_EXPONENTS = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 400.0))
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
_EDGES = (0.0, 5e-324, -5e-324, 1e154, -1e154, 1e308, -1e308, -2.0, -0.5, 0.5, 1.0, 3.0)
_COORDINATE = st.sampled_from(_EDGES)
_SLOPE = st.sampled_from(_EDGES + (np.inf, -np.inf))
_ROWS = st.lists(st.tuples(_COORDINATE, _COORDINATE, _SLOPE), min_size=1, max_size=6)


@settings(max_examples=400)
@given(ast=_ASTS, rows=_ROWS, as_floats=st.booleans())
def test_the_gated_walker_matches_a_check_at_every_node(ast, rows, as_floats):
    lagr = Lagrangian(ast, ast.to_source())
    if as_floats:  # one row as floats: 0-d arrays
        env = dict(zip("txr", rows[0]))
    else:
        env = dict(zip("txr", (np.array(column) for column in zip(*rows))))
    # f, its partials and its second partials, derivative nodes and guards included
    for a in lagr._second:
        got = _outcome(lambda columns: expressions._Plan((a,)).run(columns)[0], env)
        assert got == _outcome(_reference_row_fn(a), env), a.to_source()


@pytest.mark.parametrize(
    "src, r, sub",
    [
        ("exp(r)", 1000.0, "exp(r)"),  # overflow: f_r is exp(r) itself
        ("log(r)", 0.0, "log(r)"),  # divide by zero: f_r is 1/r, a derived divisor
        ("log(x*r)", 1.0, "log((x * r))"),  # invalid: f_r is x/(x*r), 0/0 at x = 0
    ],
)
def test_each_flag_leads_to_the_check(src, r, sub):
    # f_r on its own, at a row where f itself would fail first
    ast = expressions.derivative(parse_lagrangian(src).ast, "r")
    env = {"t": 0.0, "x": 0.0, "r": r}
    got = _outcome(lambda columns: expressions._Plan((ast,)).run(columns)[0], env)
    assert got == _outcome(_reference_row_fn(ast), env)
    assert got[1] == (DomainError, f"overflow in '{sub}' at t=0.0, x=0.0, r={r!r}", 0)


@pytest.mark.parametrize("src", ["1/exp(r)", "exp(-exp(r))"])
def test_an_overflow_that_a_later_node_hides_is_named(src):
    lagr = parse_lagrangian(src)
    with pytest.raises(DomainError, match=re.escape("overflow in 'exp(r)' at t=0.0, x=0.0, r=1000.0")):
        lagr.eval(0.0, 0.0, 1000.0)
    with pytest.raises(DomainError, match=re.escape("overflow in 'exp(r)' at t=0.0, x=0.0, r=1000.0")) as info:
        lagr.eval(0.0, 0.0, np.array([1.0, 2.0, 1000.0]))
    assert info.value.index == 2


def test_a_raising_call_leaves_numpy_error_state_as_it_was():
    before = np.geterr()
    with pytest.raises(DomainError):
        evaluate(parse_lagrangian("r^200 * r^200").ast, {"r": np.array([10.0])})
    with pytest.raises(DomainError, match="overflow in the excess"):
        excess(parse_lagrangian("r^2"), 0.0, 0.0, 1e154, -1e154)
    assert np.geterr() == before


# -- the work the check does: none where no flag is raised ----------------------


@pytest.fixture
def finite_checks(monkeypatch):
    calls = []

    def spy(out, operands):
        calls.append(1)
        return _check_finite(out, operands)

    monkeypatch.setattr(expressions, "_check_finite", spy)
    return calls


def test_a_solve_without_overflow_checks_no_node(finite_checks):
    problem = VariationalProblem(
        make_uniform(0.0, 60.0, 1.0), 0.0, 60.0, parse_lagrangian("sqrt(r^2+1) + x^2/2"), 0.0, 1.0
    )
    result = solve_el_discrete(problem)
    assert result.converged
    assert finite_checks == []


def test_an_overflow_is_checked_at_the_node_that_raised_its_flag(finite_checks):
    with pytest.raises(DomainError, match=re.escape("overflow in 'exp(r)'")):
        parse_lagrangian("exp(r)").eval(0.0, 0.0, 1000.0)
    assert finite_checks
