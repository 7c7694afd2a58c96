"""Parsing and evaluation of integrand expressions f(t, x, r).

The grammar is a small calculator language over the three variables t, x, r
with the functions sin, cos, exp, log, sqrt, abs:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so -x^2 parses
as -(x^2). The partial derivatives of f are ASTs too, derived by the chain
rule once per node object of a Lagrangian (see derivative): a sub-expression
that the derivatives repeat is one object.

One evaluator, a plan (_Plan), evaluates a tuple of ASTs over numpy
values: an array in a variable slot evaluates the expressions on many
(t, x, r) rows at once, with the domain checks applied as masks, and a
float is a 0-d array, a single row. The plan lists the distinct node
objects of the ASTs in first-visit post-order, and one flat loop runs each
once; values, errors and messages are those of a walk of each tree in
turn. Each step's callable is bound when the plan is built, so the loop
calls it on its operands' values with no dispatch on the node. A
Lagrangian builds one plan per tuple of outputs it evaluates, on first
use. eval_rows makes an evaluation
fail exactly where a loop over the rows would, naming that row. It takes a
float64 array as it is and makes the arrays the plan created read-only in
place; an output that is one of its arguments comes back as a read-only
view, so a caller's array is never made read-only. A result
that is not finite although its operands are (an overflow) is an error
too. It is looked for only at the steps where numpy raised a
floating-point flag: IEEE 754 arithmetic on finite operands gives inf only
with the overflow or divide-by-zero flag and NaN only with the invalid
flag, so a step without a flag needs no check.
"""

from __future__ import annotations

import math
import operator
import re
from functools import cached_property, partial
from typing import Any, Callable, Mapping, Optional, Union

import numpy as np

from .errors import (
    DomainError,
    ExpressionSyntaxError,
    InvalidParameter,
    NonDifferentiablePoint,
    TsvarError,
    UnknownIdentifier,
)
from .timescale import _Frozen

VARIABLES = ("t", "x", "r")

Number = Union[float, np.ndarray]

# -- AST ----------------------------------------------------------------------


class _Node(_Frozen):
    """An AST node: equal, hashed and shown by its _fields (see _Frozen).

    A derivative node's origin is outside them. _bits holds the node's
    variables once _varies has found them.
    """

    __slots__ = ("_bits",)


class Num(_Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)

    def to_source(self) -> str:
        return repr(self.value)


class Var(_Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def to_source(self) -> str:
        return self.name


class Neg(_Node):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: ExprAst):
        object.__setattr__(self, "arg", arg)

    def to_source(self) -> str:
        return f"(-{self.arg.to_source()})"


class Call(_Node):
    __slots__ = ("fn", "arg", "origin")
    _fields = ("fn", "arg")

    # origin is the user's sub-expression that a node of a derivative AST came from
    def __init__(self, fn: str, arg: ExprAst, origin: Optional[ExprAst] = None):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "origin", origin)

    def to_source(self) -> str:
        return f"{self.fn}({self.arg.to_source()})"


class BinOp(_Node):
    __slots__ = ("op", "lhs", "rhs", "origin")
    _fields = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: ExprAst, rhs: ExprAst, origin: Optional[ExprAst] = None):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "origin", origin)

    def to_source(self) -> str:
        return f"({self.lhs.to_source()} {self.op} {self.rhs.to_source()})"


class Guard(_Node):
    """arg's value where the derivative of origin exists; a node of derivative ASTs only.

    arg is the tangent of origin's argument test. Both are evaluated first,
    as forward-mode differentiation meets them. Then rule checks them:
    "nonzero" (test != 0), "positive" (test > 0) or "abs" (test != 0 unless
    arg is 0). The error carries message and names origin, the user's
    sub-expression.
    """

    __slots__ = _fields = ("rule", "message", "test", "arg", "origin")

    def __init__(self, rule: str, message: str, test: ExprAst, arg: ExprAst, origin: ExprAst):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "test", test)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "origin", origin)


ExprAst = Union[Num, Var, Neg, Call, BinOp, Guard]


# -- tokenizer / parser -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {src[at]!r}", at)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


# Most levels an expression may nest: each operation, call and parenthesized
# group is one level above its operands, and r+r+r is three levels deep.
# Parsing, deriving and evaluating f, its partials and its second partials
# at this depth stay within Python's default recursion limit of 1000 frames.
MAX_DEPTH = 150


class _Parser:
    """Recursive descent; each rule returns its node and the node's depth."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.open = 0  # factor rules being parsed, one inside another

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def level(self, pos: int, *depths: int) -> int:
        """The depth of the node at pos over operands of these depths, raising past MAX_DEPTH."""
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            raise ExpressionSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        return depth

    def expect_op(self, op: str):
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            pos = tok[2] if tok else len(self.src)
            raise ExpressionSyntaxError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> ExprAst:
        node, _ = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExpressionSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> tuple[ExprAst, int]:
        node, depth = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.advance()
            rhs, rhs_depth = self.term()
            node, depth = BinOp(tok[1], node, rhs), self.level(tok[2], depth, rhs_depth)
        return node, depth

    def term(self) -> tuple[ExprAst, int]:
        node, depth = self.factor()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.advance()
            rhs, rhs_depth = self.factor()
            node, depth = BinOp(tok[1], node, rhs), self.level(tok[2], depth, rhs_depth)
        return node, depth

    def factor(self) -> tuple[ExprAst, int]:
        # every factor inside another is a level deeper: bound the recursion on the way down
        tok = self.peek()
        self.open += 1
        self.level(tok[2] if tok else len(self.src), self.open - 1)
        if tok and tok[0] == "op" and tok[1] == "-":
            self.advance()
            arg, depth = self.factor()
            node, depth = Neg(arg), self.level(tok[2], depth)
        else:
            node, depth = self.base()
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "^":
                self.advance()
                rhs, rhs_depth = self.factor()
                node, depth = BinOp("^", node, rhs), self.level(tok[2], depth, rhs_depth)
        self.open -= 1
        return node, depth

    def base(self) -> tuple[ExprAst, int]:
        tok = self.advance()
        if tok is None:
            raise ExpressionSyntaxError("unexpected end of expression", len(self.src))
        kind, text, pos = tok
        if kind == "number":
            value = float(text)
            if value == np.inf:  # the grammar has no sign, so no literal is -inf
                raise ExpressionSyntaxError(f"number {text!r} is outside the float range", pos)
            return Num(value), 1
        if kind == "ident":
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "(":
                if text not in _FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function {text!r} at position {pos}")
                self.advance()
                arg, depth = self.expr()
                self.expect_op(")")
                return Call(text, arg), self.level(pos, depth)
            if text not in VARIABLES:
                raise UnknownIdentifier(
                    f"unknown identifier {text!r} at position {pos}; variables are t, x, r"
                )
            return Var(text), 1
        if kind == "op" and text == "(":
            node, depth = self.expr()
            self.expect_op(")")
            return node, self.level(pos, depth)
        raise ExpressionSyntaxError(f"unexpected token {text!r}", pos)


# -- evaluation ---------------------------------------------------------------


def check(bad, error: type, message: str) -> None:
    """Raise error(message) where the numpy bool or bool array bad holds anywhere.

    The error's `index` attribute is the first bad flat index (0 for a 0-d
    check, which fails everywhere).
    """
    if bad.any():
        e = error(message)
        e.index = int(np.argmax(bad))
        raise e


def _log(u: np.ndarray) -> np.ndarray:
    check(u <= 0.0, DomainError, "log of a non-positive value")
    return np.log(u)


def _sqrt(u: np.ndarray) -> np.ndarray:
    check(u < 0.0, DomainError, "sqrt of a negative value")
    return np.sqrt(u)


_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": _log, "sqrt": _sqrt, "abs": np.abs}
# sign appears in derivative ASTs only: the parser does not accept it
_EVAL_FUNCTIONS = {**_FUNCTIONS, "sign": np.sign}


def _power(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    if rhs.ndim:  # an exponent per row
        check((lhs == 0.0) & (rhs < 0.0), DomainError, "zero base with negative exponent")
        check((lhs < 0.0) & (rhs != np.round(rhs)), DomainError, "negative base with non-integer exponent")
        return lhs**rhs
    # one exponent for every row: as a Python float it keeps numpy's fast paths
    # (a ** 0.5 is a sqrt), and its own tests rule most checks out without
    # touching the base
    rhs = float(rhs)
    if rhs < 0.0:
        check(lhs == 0.0, DomainError, "zero base with negative exponent")
    if not rhs.is_integer():
        check(lhs < 0.0, DomainError, "negative base with non-integer exponent")
    return lhs**rhs


def _divide(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs / rhs for a division of the user's: DomainError where rhs is 0.

    One divisor for every row, such as a constant, is tested once without a mask.
    """
    if rhs.ndim or rhs == 0.0:
        check(rhs == 0.0, DomainError, "division by zero")
    return lhs / rhs


def _binary(node: BinOp) -> Callable:
    """The callable that computes node from its operands' values.

    A derived divisor is a divisor of f, a log or power base of f or
    2*sqrt(u): nonzero wherever f is defined, so it is not tested.
    """
    if node.op == "/":
        return _divide if node.origin is None else operator.truediv
    return _BINARY[node.op]


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "^": _power}


def _check_finite(out: np.ndarray, operands: tuple) -> None:
    """DomainError where out is not finite although every operand is (an overflow)."""
    ok = np.isfinite(out)
    if ok.all():
        return
    bad = ~ok
    for operand in operands:
        bad = bad & np.isfinite(operand)
    check(bad, DomainError, "overflow")


class _Plan:
    """The distinct node objects of a tuple of ASTs, in first-visit post-order, and the loop that runs them.

    Each node object is one step, however many paths reach it: it has the
    same operand values at every visit, so it cannot fail where its first
    visit did not. Post-order over the ASTs in turn is the order in which a
    walk of each tree meets each node first, so values and the first error
    are those of that walk. Building is linear in the distinct node objects.

    Each step's callable is bound here: an arithmetic operator (numpy's
    ufunc on arrays, its scalar arithmetic on numpy scalars), the checked
    divide, _power, a function of _EVAL_FUNCTIONS or the guard. A Num's
    value is in its slot before the loop starts, and a Var's step reads
    env, which sits in the slot after the nodes'.
    """

    def __init__(self, asts: tuple):
        nodes: list = []  # the distinct node objects; node i's value goes to slot i
        constants: list = []  # slot i's value before the loop: a Num's, or None
        steps: list = []  # (callable, operand slot, second operand slot or None, slot)
        seen: dict = {}  # id(node) -> its slot

        def visit(node: ExprAst) -> int:
            i = seen.get(id(node))
            if i is not None:
                return i
            kind, b = node.__class__, None
            if kind is BinOp:
                a, b, fn = visit(node.lhs), visit(node.rhs), _binary(node)
            elif kind is Guard:
                a, b, fn = visit(node.test), visit(node.arg), partial(_guard, node)
            elif kind is Call:
                a, fn = visit(node.arg), _EVAL_FUNCTIONS[node.fn]
            elif kind is Neg:
                a, fn = visit(node.arg), operator.neg
            elif kind is Var:
                a, fn = -1, operator.itemgetter(node.name)
            i = seen[id(node)] = len(nodes)
            nodes.append(node)
            if kind is Num:
                constants.append(np.float64(node.value))
            else:
                constants.append(None)
                steps.append((fn, a, b, i))
            return i

        self.outputs = tuple(visit(a) for a in asts)
        self.nodes, self.constants = tuple(nodes), constants
        # each step drops the operand values that no later step reads, as a
        # walk of the tree does: large row arrays do not pile up
        read = {-1, *self.outputs}  # env and the outputs stay
        bound = []
        for fn, a, b, i in reversed(steps):
            drop = ()
            if a not in read:
                read.add(a)
                drop = (a,)
            if b is not None and b not in read:
                read.add(b)
                drop += (b,)
            bound.append((fn, a, b, i, drop))
        self.steps = tuple(reversed(bound))

    def run(self, env: Mapping[str, np.ndarray]) -> tuple:
        """The ASTs' values over numpy values (arrays, 0-d included, and numpy scalars).

        Every function call and binary operation must stay finite: a result
        that overflows from finite operands raises DomainError like a domain
        violation. Errors name the failing sub-expression (for a node of a
        derivative AST, the user's sub-expression it came from) and keep the
        `index` of the check that raised them (see check).

        The finiteness check runs only at a step where numpy raised a
        floating-point flag: under IEEE 754, finite operands give inf only
        with the overflow or divide-by-zero flag set and NaN only with the
        invalid flag set. eval_rows runs plans with those flags raising
        FloatingPointError; such a step is computed again with the flags off
        and then checked, so values and errors are those of a check at every
        node. Outside eval_rows' setting an overflow is not reported.
        """
        values = [*self.constants, env]
        for fn, a, b, i, drop in self.steps:
            try:
                try:
                    values[i] = fn(values[a]) if b is None else fn(values[a], values[b])
                except FloatingPointError:
                    operands = (values[a],) if b is None else (values[a], values[b])
                    with np.errstate(all="ignore"):
                        out = fn(*operands)
                    _check_finite(out, operands)
                    values[i] = out
            except (DomainError, NonDifferentiablePoint) as e:
                raise _located(e, self.nodes[i]) from None
            except KeyError:  # a Var's step
                raise UnknownIdentifier(f"variable {self.nodes[i].name!r} is not available here") from None
            for k in drop:
                values[k] = None
        return tuple([values[i] for i in self.outputs])


def _located(e: TsvarError, node: ExprAst) -> TsvarError:
    """e, its message naming node's sub-expression of the user's text."""
    source = node if node.origin is None else node.origin
    located = type(e)(f"{e.args[0]} in '{source.to_source()}'")
    located.index = getattr(e, "index", 0)
    return located


def _guard(node: Guard, test: np.ndarray, value: np.ndarray) -> np.ndarray:
    """value, once node's rule holds for test and value everywhere."""
    if node.rule == "positive":
        bad = test <= 0.0
    elif node.rule == "nonzero":
        bad = test == 0.0
    else:  # abs at 0 is differentiable along a direction that does not move it
        bad = (test == 0.0) & (value != 0.0)
    check(bad, DomainError if node.rule == "positive" else NonDifferentiablePoint, node.message)
    return value


# the floating-point flags that a plan's overflow check reads (see _Plan.run)
_RAISE_FLAGS = {"over": "raise", "divide": "raise", "invalid": "raise", "under": "ignore"}
_FLOAT = np.dtype(float)


def eval_rows(fn: Callable[[dict], Any], env: Mapping[str, Any]) -> Any:
    """fn's values over the rows of env's values, broadcast together in C order.

    env's values are numbers or arrays of numbers; any other value, such as
    None, a string or a ragged list, raises InvalidParameter naming its key.
    fn maps a dict of float arrays (0-d for a float) to an array, a numpy
    scalar, or a tuple of them. It is called once on env's values as given,
    a float64 array as it is, so each node of an expression spans only the
    axes of its operands.
    fn runs with numpy's overflow, divide-by-zero and invalid flags raising
    FloatingPointError and underflow ignored, which a plan's overflow
    check reads (see _Plan.run); arithmetic of fn's own that may meet those
    flags runs under np.errstate(all="ignore") and checks its result.

    Returns fn's values, read-only arrays of the broadcast shape, or floats
    when every value of env is a scalar. An array of that shape that fn
    made is sealed as it is; one that fn was given comes back as a
    read-only view, so a caller's array stays writable. An output over
    fewer axes is a broadcast view, and a constant a new array.
    Otherwise raises the DomainError or
    NonDifferentiablePoint that a loop over the rows would meet first: fn is
    re-run on the flattened rows before the first bad row its error names
    until they evaluate cleanly. The error's index is that row, its message
    gives the row's values, and its `before` holds fn's values on the rows
    before it, as read-only 1-d arrays. A constant sub-expression that fails
    fails on no rows too: then `before` is None, and without rows fn's own
    located error is raised.
    """
    names = list(env)
    values = [_argument(k, env[k]) for k in names]
    shapes = {v.shape for v in values}
    if len(shapes) == 1:
        (shape,) = shapes
    else:
        try:
            shape = np.broadcast(*values).shape
        except ValueError:
            given = ", ".join(f"{k} {v.shape}" for k, v in zip(names, values))
            raise InvalidParameter(f"arguments of shapes {given} do not broadcast together") from None
    try:
        with np.errstate(**_RAISE_FLAGS):
            out = fn(dict(zip(names, values)))
    except (DomainError, NonDifferentiablePoint):
        pass
    else:
        return _values(out, shape, shape, {id(v) for v in values})
    columns = [c.ravel() for c in np.broadcast_arrays(*values)]
    stop, error, out = math.prod(shape), None, None
    while out is None:
        try:
            with np.errstate(**_RAISE_FLAGS):
                out = fn({k: c[:stop] for k, c in zip(names, columns)})
        except (DomainError, NonDifferentiablePoint) as e:
            if stop == 0:  # fails on no rows: a failing constant sub-expression
                if error is None:
                    raise
                break
            stop, error = e.index, e
    if error is None:  # fn failed only on values that no row holds
        return _values(out, (stop,), shape)
    where = ", ".join(f"{k}={float(c[stop])!r}" for k, c in zip(names, columns))
    located = type(error)(f"{error.args[0]} at {where}")
    located.index = stop
    located.before = None if out is None else _values(out, (stop,), (stop,))
    raise located


def _argument(name: str, value) -> np.ndarray:
    """value as a float array; InvalidParameter naming name unless it is a number or an array of numbers."""
    if value.__class__ is np.ndarray and value.dtype is _FLOAT:
        return value
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged sequence
        array = None
    if array is None or array.dtype.kind not in "biuf":
        raise InvalidParameter(f"{name} must be a number or an array of numbers, not {type(value).__name__}")
    return array.astype(float, copy=False)


def _values(out, rows: tuple, shape: tuple, given: set = frozenset()):
    """Each output of fn's out as a read-only array of rows' shape, reshaped to shape; floats for ().

    An array of rows' shape is sealed as it is, unless given holds its id:
    an array fn was given comes back as a read-only view of it.
    """
    if not shape:
        return tuple(map(float, out)) if isinstance(out, tuple) else float(out)
    single = not isinstance(out, tuple)
    sealed = []
    for o in (out,) if single else out:
        if o.__class__ is not np.ndarray:  # a numpy scalar, such as a constant's value
            o = np.asarray(o)
        if o.shape == rows:
            if id(o) in given:
                o = o.view()
        elif o.ndim:
            o = np.broadcast_to(o, rows)
        else:  # a constant: filling a new array costs less than a broadcast view
            o, value = np.empty(rows, o.dtype), o
            o.fill(value)
        o.setflags(write=False)
        sealed.append(o if rows == shape else o.reshape(shape))
    return sealed[0] if single else tuple(sealed)


def evaluate(ast: ExprAst, env: Mapping[str, np.ndarray]) -> Number:
    """ast's values over the rows of env's values, or the error a loop over the rows meets first.

    As eval_rows: read-only arrays of the broadcast shape, floats when every value is a scalar.
    An ast that is not an AST, or an env that is not a mapping, is InvalidParameter.
    """
    _check_node("ast", ast)
    if not isinstance(env, Mapping):
        raise InvalidParameter(f"env must be a mapping of variable names to values, not {type(env).__name__}")
    plan = _Plan((ast,))
    return eval_rows(lambda columns: plan.run(columns)[0], env)


def _check_node(name: str, node) -> None:
    """InvalidParameter naming name unless node is an expression AST."""
    if not isinstance(node, _Node):
        raise InvalidParameter(f"{name} must be an expression AST, not {type(node).__name__}")


# -- symbolic differentiation ---------------------------------------------------

_ZERO, _ONE = Num(0.0), Num(1.0)


def _constant(node: ExprAst) -> float:
    """The value of node, an AST without variables; its TsvarError where it fails (as eval_rows)."""
    if node.__class__ is Num:  # most exponents
        return float(node.value)
    with np.errstate(**_RAISE_FLAGS):
        return float(_Plan((node,)).run({})[0])


def _is_num(node: ExprAst, value: float) -> bool:
    return node.__class__ is Num and node.value == value


_BITS = {name: 1 << i for i, name in enumerate(VARIABLES)}  # a variable's bit in a node's _bits


def _varies(node: ExprAst, name: Optional[str] = None) -> bool:
    """Whether node contains a variable, or the variable name when one is given.

    The variables of each node object are found once and kept on it, as
    bits (a node's hash walks its whole tree, so it cannot key a memo):
    deriving a tree whose sub-trees are shared is linear in its distinct
    nodes.
    """
    bits = getattr(node, "_bits", None)
    if bits is None:
        kind = node.__class__
        if kind is Num or kind is Var:
            bits = _BITS[node.name] if kind is Var else 0
        else:
            parts = (node.lhs, node.rhs) if kind is BinOp else (node.arg,)
            if kind is Guard:
                parts += (node.test,)
            bits = 0
            for part in parts:
                if _varies(part):
                    bits |= part._bits
        object.__setattr__(node, "_bits", bits)
    return bits != 0 if name is None else bits & _BITS[name] != 0


# Builders of derivative nodes that drop 0 terms and factors of 1, and fold
# an operation on two numbers into its value, so that the plan does not
# redo it at every call.


def _op(op: str, a: ExprAst, b: ExprAst, origin: ExprAst) -> ExprAst:
    node = BinOp(op, a, b, origin)
    if a.__class__ is Num and b.__class__ is Num:
        # the plan's own callable, under the flags of eval_rows: finite
        # operands raise a flag only where the value is not finite
        try:
            with np.errstate(**_RAISE_FLAGS):
                return Num(float(_binary(node)(np.float64(a.value), np.float64(b.value))))
        except (TsvarError, FloatingPointError):  # kept as a node, which raises its located error when evaluated
            pass
    return node


def _neg(a: ExprAst) -> ExprAst:
    if a.__class__ is Num:
        return Num(-a.value)
    return a.arg if a.__class__ is Neg else Neg(a)


def _add(a: ExprAst, b: ExprAst, origin: ExprAst) -> ExprAst:
    if _is_num(a, 0.0):
        return b
    return a if _is_num(b, 0.0) else _op("+", a, b, origin)


def _sub(a: ExprAst, b: ExprAst, origin: ExprAst) -> ExprAst:
    if _is_num(b, 0.0):
        return a
    return _neg(b) if _is_num(a, 0.0) else _op("-", a, b, origin)


def _mul(a: ExprAst, b: ExprAst, origin: ExprAst) -> ExprAst:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _ZERO
    if _is_num(a, 1.0):
        return b
    return a if _is_num(b, 1.0) else _op("*", a, b, origin)


def _div(a: ExprAst, b: ExprAst, origin: ExprAst) -> ExprAst:
    if _is_num(a, 0.0):
        return _ZERO
    return a if _is_num(b, 1.0) else _op("/", a, b, origin)


def derivative(node: ExprAst, v: str) -> ExprAst:
    """The AST of d(node)/dv, for v one of t, x, r, by the chain rule.

    Every new node records the user's sub-expression it came from, which
    its errors name. Guard nodes keep the derivative's own domain: sqrt and
    powers 0 < n < 1 at 0, abs at 0 where its argument moves with v, and a
    power with a varying exponent at a non-positive base. A sub-expression
    without v has the derivative 0 and no guard, so the f_r of
    sqrt(x) + r^2 is 2r at x = 0 too.

    Each node object is derived once: a sub-tree reached by several paths
    has one derivative object, which a plan runs once. A node that is not
    an AST, or a v that is not a variable, is InvalidParameter.
    """
    _check_node("node", node)
    if not (isinstance(v, str) and v in VARIABLES):
        raise InvalidParameter(f"v must be one of 't', 'x', 'r', not {v!r}")
    return _derived(node, v, {})


def _derived(node: ExprAst, v: str, memo: dict) -> ExprAst:
    """d(node)/dv, derived once per (node object, v) of memo; memo holds node, so its id stays unique."""
    key = (id(node), v)
    if key not in memo:
        memo[key] = (node, _derivative(node, v, memo))
    return memo[key][1]


def _derivative(node: ExprAst, v: str, memo: dict) -> ExprAst:
    """d(node)/dv by the chain rule, its operands' derivatives taken from memo (see derivative)."""
    if not _varies(node, v):
        return _ZERO
    kind = node.__class__
    if kind is Var:
        return _ONE
    if kind is Neg:
        return _neg(_derived(node.arg, v, memo))
    origin = node.origin or node
    if kind is Guard:
        d = _derived(node.arg, v, memo)
        if node.rule == "abs" and _is_num(d, 0.0):
            return _ZERO
        return Guard(node.rule, node.message, node.test, d, origin)
    if kind is Call:
        u, fn = node.arg, node.fn
        du = _derived(u, v, memo)
        if _is_num(du, 0.0) or fn == "sign":
            return _ZERO
        if fn == "sqrt":
            moving = Guard("nonzero", "sqrt is not differentiable at 0", u, du, origin)
            return _div(moving, _mul(Num(2.0), node, origin), origin)
        if fn == "abs":
            moving = Guard("abs", "abs is not differentiable at 0", u, du, origin)
            return _mul(Call("sign", u, origin), moving, origin)
        if fn == "sin":
            return _mul(Call("cos", u, origin), du, origin)
        if fn == "cos":
            return _neg(_mul(Call("sin", u, origin), du, origin))
        if fn == "exp":
            return _mul(node, du, origin)
        return _div(du, u, origin)  # log
    u, w, op = node.lhs, node.rhs, node.op
    if op == "^":
        return _power_derivative(node, v, origin, memo)
    du, dw = _derived(u, v, memo), _derived(w, v, memo)
    if op == "+":
        return _add(du, dw, origin)
    if op == "-":
        return _sub(du, dw, origin)
    if op == "*":
        return _add(_mul(du, w, origin), _mul(u, dw, origin), origin)
    # d(u/w) = (du - (u/w) dw) / w: node itself is u/w, and no w*w is formed
    return _div(_sub(du, _mul(node, dw, origin), origin), w, origin)


def _power_derivative(node: BinOp, v: str, origin: ExprAst, memo: dict) -> ExprAst:
    u, w = node.lhs, node.rhs
    if _varies(w):  # d(u^w) = u^w (w du/u + dw log u), for u > 0 only
        du, dw = _derived(u, v, memo), _derived(w, v, memo)
        message = "power with varying exponent requires a positive base"
        checked = Guard("positive", message, u, du, origin)  # before du/u and log(u)
        rate = _add(
            _mul(w, _div(checked, u, origin), origin), _mul(dw, Call("log", u, origin), origin), origin
        )
        return _mul(node, rate, origin)
    try:
        n = _constant(w)
    except TsvarError:
        return node  # the exponent fails wherever f is evaluated, and so does node
    if n == 0.0:
        return _ZERO
    du = _derived(u, v, memo)
    if n == 1.0 or _is_num(du, 0.0):
        return du
    slope = _mul(Num(n), u if n == 2.0 else BinOp("^", u, Num(n - 1.0), origin), origin)
    if 0.0 < n < 1.0:  # the guard comes first: u^(n - 1) fails at u = 0 itself
        moving = Guard("nonzero", f"power {n} is not differentiable at base 0", u, du, origin)
        return _mul(moving, slope, origin)
    return _mul(slope, du, origin)


class Lagrangian(_Frozen):
    """A parsed integrand f(t, x, r); the ASTs of its partials are derived on first use."""

    _fields = ("ast", "source")

    def __init__(self, ast: ExprAst, source: str):
        object.__setattr__(self, "ast", ast)
        object.__setattr__(self, "source", source)
        # the derivative of each node object, shared by _first and _second (see _derived)
        object.__setattr__(self, "_memo", {})

    @cached_property
    def _first(self) -> tuple[ExprAst, ExprAst, ExprAst]:
        """The ASTs of f, f_x and f_r."""
        return self.ast, _derived(self.ast, "x", self._memo), _derived(self.ast, "r", self._memo)

    @cached_property
    def _second(self) -> tuple[ExprAst, ...]:
        """The ASTs of f, f_x, f_r, f_xx, f_xr and f_rr."""
        (_, fx, fr), memo = self._first, self._memo
        return self._first + (_derived(fx, "x", memo), _derived(fx, "r", memo), _derived(fr, "r", memo))

    # One plan per tuple of outputs, built on first use. Each runs only the
    # steps of its own outputs, in their order, so each meets errors as a
    # walk of its trees would: the excess needs f and f_r, never f_x.

    @cached_property
    def _f_plan(self) -> _Plan:
        return _Plan((self.ast,))

    @cached_property
    def _first_plan(self) -> _Plan:
        return _Plan(self._first)

    @cached_property
    def _second_plan(self) -> _Plan:
        return _Plan(self._second)

    @cached_property
    def _excess_plan(self) -> _Plan:
        """The plan of f and f_r, the terms of the excess at r."""
        return _Plan((self.ast, self._first[2]))

    def eval(self, t: Number, x: Number, r: Number) -> Number:
        """f(t, x, r); array arguments are broadcast together (see eval_rows).

        Floats are evaluated as one row of the same plan and give a float;
        an error names the failing row's t, x and r.
        """
        return self._evaluate(self._f_plan, t, x, r)[0]

    def partials(self, t: Number, x: Number, r: Number) -> tuple[Number, Number, Number]:
        """(f, f_x, f_r) at (t, x, r).

        f is evaluated first, so its own domain errors come before those of
        the derivatives. Arguments are broadcast together, and floats give
        floats, as in eval.
        """
        return self._evaluate(self._first_plan, t, x, r)

    def second_partials(self, t: Number, x: Number, r: Number) -> tuple[Number, ...]:
        """(f, f_x, f_r, f_xx, f_xr, f_rr) at (t, x, r), in that order; arguments as in partials."""
        return self._evaluate(self._second_plan, t, x, r)

    def _evaluate(self, plan: _Plan, t: Number, x: Number, r: Number) -> tuple:
        return eval_rows(plan.run, {"t": t, "x": x, "r": r})

    def to_source(self) -> str:
        """Parenthesized rendering that re-parses to an equivalent AST."""
        return self.ast.to_source()

    def __repr__(self):
        return f"Lagrangian({self.source!r})"


def parse_lagrangian(src: str) -> Lagrangian:
    """Parse expression text into a Lagrangian.

    Raises ExpressionSyntaxError (with position), also for an expression
    nested deeper than MAX_DEPTH levels, or UnknownIdentifier; src other
    than a string or None is InvalidParameter.
    """
    if src is not None and not isinstance(src, str):
        raise InvalidParameter(f"src must be a string, not {type(src).__name__}")
    if not src or not src.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return Lagrangian(ast=_Parser(src).parse(), source=src)
