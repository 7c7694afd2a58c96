"""Parsing and evaluation of integrand expressions f(t, x, r).

The grammar is a small calculator language over the three variables t, x, r
with the functions sin, cos, exp, log, sqrt, abs:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so -x^2 parses
as -(x^2). Evaluation accepts floats, Dual numbers or numpy arrays in any
variable slot. Dual numbers power both the partial derivatives and the
solver Jacobian; arrays evaluate the expression on many (t, x, r) rows at
once, with the domain checks applied as masks, and eval_rows makes such an
evaluation fail exactly where a loop over the rows would.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isfinite
from typing import Any, Callable, Mapping, Optional, Union

import numpy as np

from . import dual
from .dual import Dual, Number, check, is_finite, primal_value, tangent_of
from .errors import (
    DomainError,
    ExpressionSyntaxError,
    NonDifferentiablePoint,
    TsvarError,
    UnknownIdentifier,
)

VARIABLES = ("t", "x", "r")

_FUNCTIONS = {
    "sin": dual.sin,
    "cos": dual.cos,
    "exp": dual.exp,
    "log": dual.log,
    "sqrt": dual.sqrt,
    "abs": dual.fabs,
}


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float

    def to_source(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Var:
    name: str

    def to_source(self) -> str:
        return self.name


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"

    def to_source(self) -> str:
        return f"(-{self.arg.to_source()})"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "ExprAst"

    def to_source(self) -> str:
        return f"{self.fn}({self.arg.to_source()})"


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: "ExprAst"
    rhs: "ExprAst"

    def to_source(self) -> str:
        return f"({self.lhs.to_source()} {self.op} {self.rhs.to_source()})"


ExprAst = Union[Num, Var, Neg, Call, BinOp]


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


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            pos = tok[2] if tok else len(self.src)
            raise ExpressionSyntaxError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> ExprAst:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExpressionSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.advance()
            node = BinOp(tok[1], node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.advance()
            node = BinOp(tok[1], node, self.factor())
        return node

    def factor(self) -> ExprAst:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.advance()
            return Neg(self.factor())
        node = self.base()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.advance()
            return BinOp("^", node, self.factor())
        return node

    def base(self) -> ExprAst:
        tok = self.advance()
        if tok is None:
            raise ExpressionSyntaxError("unexpected end of expression", len(self.src))
        kind, text, pos = tok
        if kind == "number":
            return Num(float(text))
        if kind == "ident":
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "(":
                if text not in _FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function {text!r} at position {pos}")
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text not in VARIABLES:
                raise UnknownIdentifier(
                    f"unknown identifier {text!r} at position {pos}; variables are t, x, r"
                )
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(f"unexpected token {text!r}", pos)


# -- evaluation ---------------------------------------------------------------


def _power(lhs: Number, rhs: Number) -> Number:
    if isinstance(rhs, Dual):
        # varying exponent: Dual.__pow__ and __rpow__ require a positive base
        return lhs**rhs if isinstance(lhs, Dual) else rhs.__rpow__(lhs)
    if isinstance(lhs, Dual):
        return lhs ** float(rhs)
    if isinstance(rhs, np.ndarray):
        negative, fractional = rhs < 0.0, rhs != np.round(rhs)
    else:
        rhs = float(rhs)
        negative, fractional = rhs < 0.0, not rhs.is_integer()
        if not isinstance(lhs, np.ndarray):
            lhs = float(lhs)
    # a scalar exponent rules most checks out without touching the base
    if negative is not False:
        check((lhs == 0.0) & negative, DomainError, "zero base with negative exponent")
    if fractional is not False:
        check((lhs < 0.0) & fractional, DomainError, "negative base with non-integer exponent")
    return lhs**rhs


def _check_finite(out: Number, operands: tuple) -> None:
    """DomainError where out is not finite although every operand is (an overflow)."""
    ok = is_finite(out)
    if isinstance(ok, np.ndarray):
        if ok.all():
            return
        ok = ~ok
    elif ok:
        return
    else:
        ok = True
    for operand in operands:
        ok = ok & is_finite(operand)
    check(ok, DomainError, "overflow")


def eval_ast(node: ExprAst, env: Mapping[str, Number]) -> Number:
    """Evaluate an AST over float, array or Dual values, with per-node domain checks.

    Every function call and binary operation must stay finite: a result that
    overflows from finite operands raises DomainError like a domain violation.
    Errors name the failing sub-expression and keep the `index` of the
    check that raised them (see dual.check).
    """
    kind = node.__class__
    if kind is Num:
        return node.value
    if kind is Var:
        try:
            return env[node.name]
        except KeyError:
            raise UnknownIdentifier(f"variable {node.name!r} is not available here") from None
    if kind is Neg:
        return -eval_ast(node.arg, env)
    if kind is Call:
        lhs = eval_ast(node.arg, env)
    else:
        lhs, rhs = eval_ast(node.lhs, env), eval_ast(node.rhs, env)
    try:
        try:
            if kind is Call:
                out = _FUNCTIONS[node.fn](lhs)
            elif (op := node.op) == "+":
                out = lhs + rhs
            elif op == "-":
                out = lhs - rhs
            elif op == "*":
                out = lhs * rhs
            elif op == "/":
                if (bad := primal_value(rhs) == 0.0) is not False:
                    check(bad, DomainError, "division by zero")
                out = lhs / rhs
            else:
                out = _power(lhs, rhs)
        except (OverflowError, ZeroDivisionError):  # a float result beyond the range, or a
            check(True, DomainError, "overflow")  # divisor that underflowed to 0 in a Dual
        # inline tests for a float and a first-order Dual of floats, the solver's hot path
        if isinstance(out, float):
            if isfinite(out):
                return out
        elif isinstance(out, Dual) and isinstance(out.primal, float) and isinstance(out.tangent, float):
            if isfinite(out.primal) and isfinite(out.tangent):
                return out
        _check_finite(out, (lhs,) if kind is Call else (lhs, rhs))
        return out
    except (DomainError, NonDifferentiablePoint) as e:
        located = type(e)(f"{e.args[0]} in '{node.to_source()}'")
        located.index = getattr(e, "index", 0)
        raise located from None


def eval_rows(fn: Callable[[dict], Any], env: Mapping[str, Any]) -> tuple[Any, Optional[TsvarError]]:
    """fn over the rows of env's values, broadcast together and flattened in C order.

    fn maps a dict of equal-length float columns to an array, a float, or a
    tuple of them; it is evaluated on all rows at once. Returns (out, error).
    Without a DomainError or NonDifferentiablePoint, error is None and out is
    broadcast to env's shape. Otherwise error is the one a loop over the rows
    would meet first: fn is re-run on the rows before the first bad row its
    error names until those rows evaluate cleanly. error.index is then that
    row, its message gives the row's values, and out covers the rows before
    it, flattened. out is None where fn fails even on no rows (a failing
    constant sub-expression).
    """
    names = list(env)
    full = np.broadcast_arrays(*(np.asarray(env[k], dtype=float) for k in names))
    columns = [c.ravel() for c in full]
    stop, error = columns[0].size, None
    while True:
        try:
            with np.errstate(all="ignore"):
                out = fn({k: c[:stop] for k, c in zip(names, columns)})
            break
        except (DomainError, NonDifferentiablePoint) as e:
            if stop == 0:  # fails on no rows at all: nothing for a row loop to meet
                out = None
                break
            stop, error = e.index, e
    shape = full[0].shape if error is None else (stop,)
    if out is not None:
        out = (
            tuple(np.broadcast_to(o, (stop,)).reshape(shape) for o in out)
            if isinstance(out, tuple)
            else np.broadcast_to(out, (stop,)).reshape(shape)
        )
    if error is not None:
        where = ", ".join(f"{k}={float(c[stop])!r}" for k, c in zip(names, columns))
        located = type(error)(f"{error.args[0]} at {where}")
        located.index = stop
        error = located
    return out, error


def _broadcast(u: Number, shape: tuple) -> Number:
    """u with every float or array component broadcast to shape."""
    if isinstance(u, Dual):
        return Dual(_broadcast(u.primal, shape), _broadcast(u.tangent, shape))
    return np.broadcast_to(u, shape)


def evaluate(ast: ExprAst, env: Mapping[str, np.ndarray]) -> np.ndarray:
    """eval_ast over the rows of array-valued env, raising the first bad row's error."""
    out, error = eval_rows(lambda columns: eval_ast(ast, columns), env)
    if error is not None:
        raise error
    return out


@dataclass(frozen=True)
class Lagrangian:
    """A parsed integrand f(t, x, r) with dual-number partial derivatives."""

    ast: ExprAst
    source: str

    def eval(self, t: Number, x: Number, r: Number) -> Number:
        """f(t, x, r); array arguments are broadcast and evaluated row by row (see eval_rows)."""
        env = {"t": t, "x": x, "r": r}
        if isinstance(t, np.ndarray) or isinstance(x, np.ndarray) or isinstance(r, np.ndarray):
            return evaluate(self.ast, env)
        return eval_ast(self.ast, env)

    def partials(self, t: Number, x: Number, r: Number) -> tuple[Number, Number, Number]:
        """(f, f_x, f_r) at (t, x, r) via two forward passes.

        Every argument is wrapped at a fresh seeding level, so the inputs may
        themselves be Dual; the returned partials then carry the callers'
        tangents (nested differentiation). Array arguments are broadcast and
        evaluated row by row, like eval. Duals of arrays are evaluated in one
        pass and every component of the result is broadcast to the rows'
        shape; a domain error then names the sub-expression but no row, so a
        caller that needs the row evaluates the plain arrays first.
        """
        if isinstance(t, Dual) or isinstance(x, Dual) or isinstance(r, Dual):
            shape = np.broadcast_shapes(*(np.shape(primal_value(a)) for a in (t, x, r)))
            if not shape:
                return self._partials(t, x, r)
            with np.errstate(all="ignore"):
                out = self._partials(t, x, r)
            return tuple(_broadcast(o, shape) for o in out)
        if not (isinstance(t, np.ndarray) or isinstance(x, np.ndarray) or isinstance(r, np.ndarray)):
            return self._partials(t, x, r)
        out, error = eval_rows(
            lambda c: self._partials(c["t"], c["x"], c["r"]), {"t": t, "x": x, "r": r}
        )
        if error is not None:
            raise error
        return out

    def _partials(self, t: Number, x: Number, r: Number) -> tuple[Number, Number, Number]:
        fx_pass = eval_ast(
            self.ast, {"t": Dual(t), "x": Dual(x, 1.0), "r": Dual(r)}
        )
        fr_pass = eval_ast(
            self.ast, {"t": Dual(t), "x": Dual(x), "r": Dual(r, 1.0)}
        )
        f = fx_pass.primal if isinstance(fx_pass, Dual) else fx_pass
        return f, tangent_of(fx_pass), tangent_of(fr_pass)

    def to_source(self) -> str:
        """Parenthesized rendering that re-parses to an equivalent AST."""
        return self.ast.to_source()

    def __repr__(self):
        return f"Lagrangian({self.source!r})"


def parse_lagrangian(src: str) -> Lagrangian:
    """Parse expression text into a Lagrangian.

    Raises ExpressionSyntaxError (with position) or UnknownIdentifier.
    """
    if not src or not src.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return Lagrangian(ast=_Parser(src).parse(), source=src)
