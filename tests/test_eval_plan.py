"""The evaluation plan: each distinct node object evaluated once, in one flat loop.

A Lagrangian keeps one plan per tuple of outputs it evaluates. Its values
and its errors must be those of a walk of each tree in turn, bit for bit:
the reference is test_flag_gated_walker's walker, which checks every node.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsvar import DomainError, NonDifferentiablePoint, excess, parse_lagrangian
from tsvar import expressions
from tsvar.expressions import MAX_DEPTH, BinOp, Call, Guard, Lagrangian, Neg, Num, Var, _Plan, eval_rows

from test_flag_gated_walker import _ASTS, _ROWS, _outcome, reference_eval

R, X = Var("r"), Var("x")


def _reference(asts):
    def fn(columns):
        with np.errstate(all="ignore"):
            return tuple(reference_eval(a, columns) for a in asts)

    return fn


def _plans(lagr):
    """Each plan of lagr with the ASTs of its outputs."""
    f, fx, fr = lagr._first
    return {
        "f": (lagr._f_plan, (f,)),
        "partials": (lagr._first_plan, lagr._first),
        "second": (lagr._second_plan, lagr._second),
        "excess": (lagr._excess_plan, (f, fr)),
    }


@settings(max_examples=300)
@given(ast=_ASTS, rows=_ROWS, as_floats=st.booleans())
def test_every_plan_matches_a_walk_of_each_tree_bit_for_bit(ast, rows, as_floats):
    lagr = Lagrangian(ast, ast.to_source())
    if as_floats:
        env = dict(zip("txr", rows[0]))
    else:
        env = dict(zip("txr", (np.array(column) for column in zip(*rows))))
    for name, (plan, asts) in _plans(lagr).items():
        assert _outcome(plan.run, env) == _outcome(_reference(asts), env), (name, ast.to_source())


# -- each node object is its own step: what it evaluates and the error it names --------


def test_a_signed_zero_keeps_its_sign_bit():
    asts = (Num(0.0), Num(-0.0), BinOp("*", Num(0.0), R), BinOp("*", Num(-0.0), R))
    plan = _Plan(asts)
    for env in ({"r": 1.0}, {"r": np.ones(3)}):
        out = eval_rows(plan.run, env)
        assert [bool(np.signbit(v).all()) for v in out] == [False, True, False, True]
        assert [bool(np.signbit(v).any()) for v in out] == [False, True, False, True]


def test_a_derived_and_a_user_division_stay_two_steps():
    derived = BinOp("/", R, X, Call("log", R))  # a divisor of f: not tested
    user = BinOp("/", R, X)
    plan = _Plan((BinOp("+", derived, user),))
    assert sum(node.__class__ is BinOp and node.op == "/" for node in plan.nodes) == 2
    env = {"t": 0.0, "x": 0.0, "r": np.inf}  # inf / 0 is inf from an operand that is not finite
    assert eval_rows(_Plan((derived,)).run, env) == (np.inf,)
    with pytest.raises(DomainError, match=re.escape("division by zero in '(r / x)' at t=0.0, x=0.0, r=inf")):
        eval_rows(plan.run, env)


@pytest.mark.parametrize(
    "src, message",
    [
        ("sqrt(x) + x^0.5", "sqrt is not differentiable at 0 in 'sqrt(x)'"),
        ("x^0.5 + sqrt(x)", "power 0.5 is not differentiable at base 0 in '(x ^ 0.5)'"),
    ],
)
def test_a_repeated_guard_is_two_steps_and_raises_the_first_visits_message(src, message):
    lagr = parse_lagrangian(src)
    assert sum(node.__class__ is Guard for node in lagr._first_plan.nodes) == 2
    with pytest.raises(NonDifferentiablePoint, match=re.escape(f"{message} at t=0.0, x=0.0, r=1.0")):
        lagr.partials(0.0, 0.0, 1.0)


def test_the_excess_runs_no_step_of_f_x():
    # f_x of sqrt(x) fails at x = 0; E needs only f and f_r
    lagr = parse_lagrangian("sqrt(x) + r^2")
    assert excess(lagr, 0.0, 0.0, 1.0, 3.0) == 4.0
    with pytest.raises(NonDifferentiablePoint):
        lagr.partials(0.0, 0.0, 1.0)


# -- each distinct node once: deep repetition costs its distinct steps ---------------

DEEP = {
    f"sin nested {MAX_DEPTH} levels": "sin(" * (MAX_DEPTH - 1) + "r" + ")" * (MAX_DEPTH - 1),
    "a power tower of 40 terms": "^".join(["r"] * 40),
}


@pytest.mark.parametrize("src", DEEP.values(), ids=DEEP.keys())
def test_second_partials_apply_each_distinct_operation_once(monkeypatch, src):
    lagr = parse_lagrangian(src)
    r = np.linspace(0.5, 1.4, 60)
    plan = lagr._second_plan
    distinct = sum(node.__class__ is Call or node.__class__ is BinOp for node in plan.nodes)
    calls = []

    def spy(fn):
        def counted(*operands):
            calls.append(1)
            return fn(*operands)

        return counted

    # each step's bound callable, counted where its node is an operation
    steps = [
        (spy(fn) if plan.nodes[i].__class__ in (Call, BinOp) else fn, a, b, i, drop)
        for fn, a, b, i, drop in plan.steps
    ]
    monkeypatch.setattr(plan, "steps", tuple(steps))
    out = lagr.second_partials(0.0, 0.0, r)
    assert len(calls) == distinct
    assert all(v.shape == (60,) and np.isfinite(v).all() for v in out)


DERIVED = {
    **DEEP,
    "sqrt nested 140 levels": "sqrt(" * 140 + "r^2 + 1" + ")" * 140,
    "a product of 70 factors": "*".join(f"(r + {k})" for k in range(70)),
}


def _distinct_nodes(asts) -> int:
    """The number of distinct node objects in asts."""
    seen, todo = set(), list(asts)
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(getattr(node, part) for part in ("lhs", "rhs", "arg", "test") if hasattr(node, part))
    return len(seen)


@pytest.mark.parametrize("src", DERIVED.values(), ids=DERIVED.keys())
def test_deriving_is_linear_in_the_distinct_nodes(monkeypatch, src):
    # _varies re-walked each sub-tree: 585,119 calls for the 22,938 distinct
    # nodes of the second partials of sin nested 148 levels
    lagr = parse_lagrangian(src)
    calls = []
    varies = expressions._varies

    def spy(node, name=None):
        calls.append(1)
        return varies(node, name)

    monkeypatch.setattr(expressions, "_varies", spy)
    second = lagr._second
    assert len(calls) <= 3 * _distinct_nodes(second)


@pytest.mark.parametrize("src", DERIVED.values(), ids=DERIVED.keys())
def test_each_node_object_is_derived_once_per_variable(monkeypatch, src):
    lagr = parse_lagrangian(src)
    derived = []
    derivative = expressions._derivative

    def spy(node, v, memo):
        derived.append((id(node), v))
        return derivative(node, v, memo)

    monkeypatch.setattr(expressions, "_derivative", spy)
    second = lagr._second
    assert len(derived) == len(set(derived))
    # every node derived is one of f, f_x or f_r, derived in x, r or both
    assert len(derived) <= 2 * _distinct_nodes(second)


def test_the_second_partials_reuse_the_derivatives_of_the_first():
    # f_rr of sqrt(r^2 + 1) + x^2/2 reads d/dr of sqrt(r^2 + 1), which is f_r
    lagr = parse_lagrangian("sqrt(r^2 + 1) + x^2/2")
    _, _, fr, _, _, frr = lagr._second
    alone = expressions.derivative(fr, "r")  # a fresh memo derives sqrt(r^2 + 1) again
    assert _distinct_nodes((frr,)) < _distinct_nodes((alone,))


# -- the traffic: array-op steps of each plan on the benchmark's Lagrangian families ----

# [f, partials, excess, second]: BinOp, Call, Guard and Neg steps of each plan
TRAFFIC = {
    "0.7368*r^2 + 0.8211*x^2": [5, 9, 7, 9],
    "0.5*r^2 + 0.25*t*x + 0.75*x^2": [8, 13, 10, 13],
    "0.5*r^2 + r^4/4 + 0.75*x^2": [8, 16, 14, 21],
    "sqrt(r^2 + 1.5) + 0.5*x^2": [6, 12, 10, 17],
    "0.5*r^2 - r^4": [4, 9, 9, 13],
    "0.5*r^2 - r^4 + 0.75*x^2": [7, 14, 12, 18],
    "sin(r) + cos(x) + 0.3*t*x": [6, 10, 7, 14],
    "exp(r/3) + 0.75*x^2": [5, 8, 6, 9],
    "r^2 + r^4/4 + x^2": [6, 12, 11, 17],
    "sqrt(r^2 + 1) + x^2/2": [6, 12, 10, 17],
    "r^2 + r^4/4 + sin(x)": [6, 12, 11, 19],
}


@pytest.mark.parametrize("src, steps", TRAFFIC.items(), ids=TRAFFIC.keys())
def test_each_plan_runs_a_fixed_number_of_array_operations(src, steps):
    plans = _plans(parse_lagrangian(src))
    ops = (BinOp, Call, Guard, Neg)
    names = ("f", "partials", "excess", "second")
    counts = [sum(node.__class__ in ops for node in plans[name][0].nodes) for name in names]
    assert counts == steps
