"""One evaluation contract: values of the broadcast shape, floats for scalars, or a TsvarError.

Lagrangian.eval, .partials, .second_partials and excess return their
values or raise; a constant sub-expression that fails raises its own
located DomainError even on zero rows, and arguments that do not broadcast
together, or an argument that is not a number or an array of numbers,
raise InvalidParameter. An argument of any numeric dtype or layout gives
the bits of its float64 copy, and a caller's array is never made
read-only, also where an output is that array's values. Expressions nest at most
MAX_DEPTH levels, and a deeper one is an ExpressionSyntaxError with its
position, also through the CLI, never a RecursionError.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tsvar import (
    DomainError,
    ExpressionSyntaxError,
    InvalidParameter,
    TsvarError,
    excess,
    parse_lagrangian,
)
from tsvar.cli import main
from tsvar.expressions import MAX_DEPTH, Guard, Var, derivative, evaluate

EMPTY = np.empty(0)
FAILING_CONSTANTS = {
    "log(0-1) + r": "log of a non-positive value in 'log((0.0 - 1.0))'",
    "sqrt(0-1)*r": "sqrt of a negative value in 'sqrt((0.0 - 1.0))'",
    "r/(1-1)": "division by zero in '(r / (1.0 - 1.0))'",
}


def calls(lagr, t, x, r, q):
    """The four evaluations of the contract, by name."""
    return {
        "eval": lambda: lagr.eval(t, x, r),
        "partials": lambda: lagr.partials(t, x, r),
        "second_partials": lambda: lagr.second_partials(t, x, r),
        "excess": lambda: excess(lagr, t, x, r, q),
    }


@pytest.mark.parametrize("src", FAILING_CONSTANTS)
@pytest.mark.parametrize("name", ["eval", "partials", "second_partials", "excess"])
def test_a_failing_constant_raises_on_zero_rows(src, name):
    # on no rows the constant is all that fails: its own located error, no row named
    call = calls(parse_lagrangian(src), EMPTY, EMPTY, EMPTY, EMPTY)[name]
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == FAILING_CONSTANTS[src]
    assert info.value.index == 0


@pytest.mark.parametrize("name", ["eval", "partials", "second_partials", "excess"])
def test_zero_rows_give_empty_arrays(name):
    out = calls(parse_lagrangian("r^2"), EMPTY, EMPTY, EMPTY, EMPTY)[name]()
    for value in out if isinstance(out, tuple) else (out,):
        assert value.shape == (0,) and not value.flags.writeable


def test_a_failing_constant_on_rows_names_the_first_row():
    with pytest.raises(DomainError, match=r"in 'log\(\(0\.0 - 1\.0\)\)' at t=1\.0, x=0\.0, r=2\.0$") as info:
        parse_lagrangian("log(0-1) + r").eval(1.0, 0.0, np.array([2.0, 3.0]))
    assert info.value.index == 0 and info.value.before is None


def test_a_row_error_carries_the_values_of_the_rows_before_it():
    r = np.array([4.0, 1.0, -1.0, 9.0])
    with pytest.raises(DomainError, match=r"at t=0\.0, x=0\.0, r=-1\.0$") as info:
        parse_lagrangian("sqrt(r)").eval(0.0, 0.0, r)
    assert info.value.index == 2
    (f,) = info.value.before  # the Lagrangian methods evaluate a tuple of ASTs
    assert f.tolist() == [2.0, 1.0] and not f.flags.writeable


# -- the property: every call returns its values or raises a TsvarError ----------

_SOURCES = (
    "r^2 - r^4 + t*x",
    "sqrt(x) + abs(r)",
    "log(t) + r/x",
    "exp(r)*sin(x) - cos(t)",
    "r^x + x^0.5",
    "r^2",
    *FAILING_CONSTANTS,
)
_EDGES = (-1.0, 0.0, 0.5, 2.0, 1e154, -1e308, 5e-324)
_SHAPES = ((), (0,), (1,), (3,), (0, 1), (2, 1), (1, 0), (2, 3))


@st.composite
def _argument(draw):
    """A float, a 0-d array or an array of one of _SHAPES."""
    shape = draw(st.sampled_from(_SHAPES))
    if not shape and draw(st.booleans()):
        return draw(st.sampled_from(_EDGES))
    return draw(arrays(float, shape, elements=st.sampled_from(_EDGES)))


@settings(max_examples=300)
@given(
    src=st.sampled_from(_SOURCES),
    args=st.tuples(_argument(), _argument(), _argument(), _argument()),
    name=st.sampled_from(("eval", "partials", "second_partials", "excess")),
)
def test_every_evaluation_returns_its_values_or_raises_a_tsvar_error(src, args, name):
    call = calls(parse_lagrangian(src), *args)[name]
    try:
        shape = np.broadcast_shapes(*(np.shape(a) for a in (args if name == "excess" else args[:3])))
    except ValueError:
        shape = None  # arguments that do not broadcast together
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails the test
        try:
            out = call()
        except TsvarError as e:
            if shape is None:
                assert isinstance(e, InvalidParameter)
            elif src in FAILING_CONSTANTS:
                assert isinstance(e, DomainError) and str(e).startswith(FAILING_CONSTANTS[src])
            return
    assert shape is not None and src not in FAILING_CONSTANTS
    for value in out if isinstance(out, tuple) else (out,):
        if shape:
            assert value.shape == shape and not value.flags.writeable
        else:
            assert type(value) is float


_JUNK = (None, "1.0", [1.0, "a"], [1.0, [2.0]], np.array([1.0, None], dtype=object), object())


@settings(max_examples=200)
@given(
    src=st.sampled_from(_SOURCES),
    args=st.lists(st.one_of(_argument(), st.sampled_from(_JUNK)), min_size=4, max_size=4),
    bad=st.integers(0, 3),
    value=st.sampled_from(_JUNK),
    name=st.sampled_from(("eval", "partials", "second_partials", "excess")),
)
def test_a_non_numeric_argument_is_invalid_parameter_naming_it(src, args, bad, value, name):
    names = "txrq" if name == "excess" else "txr"
    args[bad % len(names)] = value
    first = next(k for k, a in zip(names, args) if any(a is j for j in _JUNK))
    with pytest.raises(InvalidParameter, match=f"^{first} must be a number or an array of numbers, not "):
        calls(parse_lagrangian(src), *args)[name]()


def test_none_is_not_a_number():
    lagr = parse_lagrangian("t + r")
    with pytest.raises(InvalidParameter, match="^t must be a number or an array of numbers, not NoneType$"):
        lagr.eval(None, 0.0, 1.0)
    with pytest.raises(InvalidParameter, match="^r must be a number or an array of numbers, not NoneType$"):
        excess(lagr, 0.0, 0.0, None, 1.0)


# -- arguments as given: dtypes, layouts and the caller's arrays ----------------

_BASE = np.array([0.5, 2.0, 3.0, 0.25, 1.5, 4.0])
ARGUMENTS = {
    "float32": _BASE.astype(np.float32),
    "int": np.array([1, 2, 3, 1, 2, 4]),
    "bool": np.array([True, False, True, True, False, True]),
    "0-d": np.array(1.5),
    "strided": np.repeat(_BASE, 2)[::2],
    "broadcasting": _BASE.reshape(2, 3)[:, :1],
    "big-endian": _BASE.astype(">f8"),
    "read-only": _BASE.copy(),
}
ARGUMENTS["read-only"].flags.writeable = False


def _bits(out) -> list:
    return [(np.shape(v), np.asarray(v, dtype=float).tobytes()) for v in (out if isinstance(out, tuple) else (out,))]


# each call with the argument in each slot it reads: t, x, r, and q for the excess
SLOTS = [(name, slot) for name in ("eval", "partials", "second_partials", "excess") for slot in range(3 + (name == "excess"))]


@pytest.mark.parametrize("kind", ARGUMENTS)
@pytest.mark.parametrize("name, slot", SLOTS, ids=[f"{name}-{'txrq'[slot]}" for name, slot in SLOTS])
def test_an_argument_gives_the_bits_of_its_float64_copy(kind, name, slot):
    lagr = parse_lagrangian("r^2 - r^4 + t*x + exp(r/3)*sin(x)")
    given = [np.linspace(0.0, 1.0, 6), _BASE.copy(), _BASE[::-1] - 1.0, _BASE + 1.0]
    argument = ARGUMENTS[kind]
    before = (argument.copy(), argument.flags.writeable)
    copy = np.array(argument, dtype=float)
    got = calls(lagr, *given[:slot], argument, *given[slot + 1 :])[name]()
    want = calls(lagr, *given[:slot], copy, *given[slot + 1 :])[name]()
    assert _bits(got) == _bits(want)
    assert np.array_equal(argument, before[0]) and argument.flags.writeable == before[1]


# an output that is an argument's values: (source, call, output, the argument's slot)
ALIASES = {
    "f = r": ("r", "eval", 0, 2),
    "f_r of r*x is x": ("r*x", "partials", 2, 1),
    "f_x of r*x is r": ("r*x", "second_partials", 1, 2),
}


@pytest.mark.parametrize("src, name, output, slot", ALIASES.values(), ids=ALIASES.keys())
@pytest.mark.parametrize("t_shape", [(4,), (), (3, 1)], ids=["one shape", "a 0-d t", "fewer axes"])
def test_an_output_that_is_an_argument_is_read_only_and_the_argument_is_not(src, name, output, slot, t_shape):
    args = [np.full(t_shape, 0.5), np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.5, 1.5, 2.5, 3.5]), np.ones(4)]
    before = [a.copy() for a in args]
    out = calls(parse_lagrangian(src), *args)[name]()
    value = out[output] if isinstance(out, tuple) else out
    assert value.shape == np.broadcast_shapes(t_shape, (4,)) and not value.flags.writeable
    assert np.array_equal(np.broadcast_to(args[slot], value.shape), value)
    with pytest.raises(ValueError):
        value[..., 0] = 7.0
    assert all(a.flags.writeable for a in args)
    assert all(np.array_equal(a, b) for a, b in zip(args, before))


@pytest.mark.parametrize(
    "ast",
    [Var("r"), Guard("nonzero", "m", Var("x"), Var("r"), Var("x"))],
    ids=["a variable", "a guard passing its argument on"],
)
def test_evaluate_gives_an_argument_back_read_only_and_leaves_the_array_writable(ast):
    r = np.array([1.0, -2.0, 3.0])
    out = evaluate(ast, {"t": 0.0, "x": np.ones(3), "r": r})
    assert out is not r and not out.flags.writeable and r.flags.writeable
    assert out.tolist() == [1.0, -2.0, 3.0]


# -- derivative and evaluate check their own arguments ---------------------------

AST = parse_lagrangian("r^2 + x*t").ast
BAD_CALLS = {
    "derivative in None": (lambda: derivative(AST, None), "v must be one of 't', 'x', 'r', not None"),
    "derivative in q": (lambda: derivative(AST, "q"), "v must be one of 't', 'x', 'r', not 'q'"),
    "derivative in an array": (lambda: derivative(AST, np.array(["r"])), "v must be one of 't', 'x', 'r', not "),
    "derivative of text": (lambda: derivative("r^2", "r"), "node must be an expression AST, not str"),
    "derivative of a Lagrangian": (
        lambda: derivative(parse_lagrangian("r"), "r"), "node must be an expression AST, not Lagrangian"
    ),
    "evaluate text": (lambda: evaluate("r", {"r": 1.0}), "ast must be an expression AST, not str"),
    "evaluate None": (lambda: evaluate(None, {"r": 1.0}), "ast must be an expression AST, not NoneType"),
    "evaluate over None": (
        lambda: evaluate(AST, None), "env must be a mapping of variable names to values, not NoneType"
    ),
    "evaluate over pairs": (
        lambda: evaluate(AST, [("r", 1.0)]), "env must be a mapping of variable names to values, not list"
    ),
}


@pytest.mark.parametrize("call, message", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_a_wrong_argument_of_derivative_or_evaluate_is_named(call, message):
    with pytest.raises(InvalidParameter) as info:
        call()
    assert str(info.value).startswith(message)


def test_derivative_in_each_variable_still_derives():
    assert [derivative(AST, v).to_source() for v in "txr"] == ["x", "t", "(2.0 * r)"]


# -- the depth bound -------------------------------------------------------------

DEEP = {
    "a sum of 2,000 terms": "+".join(["r"] * 2000),
    "600 nested parentheses": "(" * 600 + "r" + ")" * 600,
    "sin nested 300 deep": "sin(" * 300 + "r" + ")" * 300,
    "a power tower of 300 terms": "^".join(["r"] * 300),
}


def write_problem(tmp_path, lagrangian="r^2", formula="0"):
    doc = {
        "scale": {"kind": "harmonic", "n_max": 10},
        "t0": 0.0,
        "t1": 1.0,
        "lagrangian": lagrangian,
        "alpha": 0.0,
        "beta": 0.0,
        "trajectory": {"kind": "expr", "formula": formula},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("src", DEEP.values(), ids=DEEP.keys())
@pytest.mark.parametrize("field", ["lagrangian", "formula"])
def test_a_deep_expression_is_one_error_line(tmp_path, capsys, src, field):
    path = write_problem(tmp_path, **{field: src})
    assert main(["eval", path]) == 1
    out, err = capsys.readouterr()
    prefix = "lagrangian" if field == "lagrangian" else "trajectory.formula"
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: {prefix}: expression nested deeper than {MAX_DEPTH} levels (at position ")


@pytest.mark.parametrize("op", ["+", "-"])
def test_a_chain_at_the_bound_evaluates_and_one_more_term_does_not(op):
    lagr = parse_lagrangian(op.join(["r"] * MAX_DEPTH))
    r = np.array([0.5, 2.0])
    slope = MAX_DEPTH if op == "+" else 2 - MAX_DEPTH
    assert lagr.eval(1.0, 0.0, r).tolist() == (slope * r).tolist()
    f, fx, fr = lagr.partials(1.0, 0.0, r)
    assert fx.tolist() == [0.0, 0.0] and fr.tolist() == [slope, slope]
    assert [d.tolist() for d in lagr.second_partials(1.0, 0.0, r)[3:]] == [[0.0, 0.0]] * 3
    text = op.join(["r"] * (MAX_DEPTH + 1))
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_lagrangian(text)
    assert info.value.position == len(text) - 2  # the operator that makes the last level


@pytest.mark.parametrize(
    "wrap", [("(", ")"), ("-", ""), ("sin(", ")")], ids=["parentheses", "unary minus", "sin"]
)
def test_nesting_at_the_bound_parses_and_one_more_level_does_not(wrap):
    pre, post = wrap
    parse_lagrangian(pre * (MAX_DEPTH - 1) + "r" + post * (MAX_DEPTH - 1))
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_lagrangian(pre * MAX_DEPTH + "r" + post * MAX_DEPTH)
    assert info.value.position == len(pre) * MAX_DEPTH  # at the r, one level too deep
