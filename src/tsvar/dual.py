"""First-order dual numbers for forward-mode differentiation.

Components may themselves be Dual, which makes second-order (nested)
differentiation work out of the box: Lagrangian.partials wraps its inputs at
a fresh seeding level, so partials of Dual inputs carry the inputs'
tangents. Plain ints/floats are lifted automatically, so mixed arithmetic is
safe as long as previously created Dual values are re-wrapped at the new
seeding level.

Components may also be numpy arrays, which evaluates many points at once:
the functions below then use numpy ufuncs instead of math, and each domain
check becomes a mask check whose error records the first bad flat index in
its `index` attribute (0 for a scalar check, which fails everywhere). A Dual
of arrays is indexed component-wise. The Newton solver pushes three such
Duals, each seeded on every third unknown, through its array residual to
fill the tridiagonal Jacobian.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .errors import DomainError, NonDifferentiablePoint

Number = Union[float, int, np.ndarray, "Dual"]


def primal_value(u: Number):
    """Innermost float (or array) of a possibly nested dual."""
    while isinstance(u, Dual):
        u = u.primal
    return u if isinstance(u, np.ndarray) else float(u)


def tangent_of(u: Number) -> Number:
    """Top-level tangent; 0 for plain numbers."""
    return u.tangent if isinstance(u, Dual) else 0.0


def check(bad, error: type, message: str) -> None:
    """Raise error(message) where the bool or bool array bad holds anywhere.

    Hot scalar paths skip the call while bad is False:
    `if (bad := ...) is not False: check(bad, ...)`.
    """
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        index = int(np.argmax(bad))
    elif bad:
        index = 0
    else:
        return
    e = error(message)
    e.index = index
    raise e


def _lib(u):
    """The math module for scalars, numpy for arrays."""
    return np if isinstance(u, np.ndarray) else math


class Dual:
    """a + b*eps with eps**2 = 0; a and b may be floats, arrays or nested Duals.

    A Dual is a value and is never modified. It is a plain slotted class, not
    a frozen dataclass, because building Duals is most of the cost of the
    scalar partials and a frozen instance takes twice as long to build.
    """

    __slots__ = ("primal", "tangent")
    # ndarray (op) Dual defers to the Dual's reflected operator
    __array_ufunc__ = None

    def __init__(self, primal: Number, tangent: Number = 0.0):
        self.primal = primal
        self.tangent = tangent

    def __eq__(self, other):
        if not isinstance(other, Dual):
            return NotImplemented
        return (self.primal, self.tangent) == (other.primal, other.tangent)

    def __hash__(self):
        return hash((self.primal, self.tangent))

    def __getitem__(self, index):
        return Dual(self.primal[index], self.tangent[index])

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.primal + other.primal, self.tangent + other.tangent)
        return Dual(self.primal + other, self.tangent)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.primal - other.primal, self.tangent - other.tangent)
        return Dual(self.primal - other, self.tangent)

    def __rsub__(self, other):
        return Dual(other - self.primal, -self.tangent)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.primal * other.primal,
                self.primal * other.tangent + self.tangent * other.primal,
            )
        return Dual(self.primal * other, self.tangent * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (bad := primal_value(other) == 0.0) is not False:
            check(bad, DomainError, "division by zero")
        if isinstance(other, Dual):
            return Dual(
                self.primal / other.primal,
                (self.tangent * other.primal - self.primal * other.tangent)
                / (other.primal * other.primal),
            )
        return Dual(self.primal / other, self.tangent / other)

    def __rtruediv__(self, other):
        if (bad := primal_value(self) == 0.0) is not False:
            check(bad, DomainError, "division by zero")
        return Dual(other / self.primal, -other * self.tangent / (self.primal * self.primal))

    def __neg__(self):
        return Dual(-self.primal, -self.tangent)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if isinstance(exponent, Dual):
            # General u**v needs u > 0; realized as exp(v*log(u)).
            _check_positive_base(self)
            return exp(exponent * log(self))
        return _pow_const(self, float(exponent))

    def __rpow__(self, base):
        _check_positive_base(base)
        return exp(self * log(base))

    def __repr__(self):
        return f"Dual({self.primal!r}, {self.tangent!r})"


def _check_positive_base(base: Number) -> None:
    check(
        primal_value(base) <= 0.0,
        DomainError,
        "power with varying exponent requires a positive base",
    )


def _pow_const(u: Dual, n: float) -> Dual:
    if n == 0.0:
        return Dual(u.primal * 0.0 + 1.0, u.tangent * 0.0)
    p = primal_value(u)
    if p.__class__ is not float or p <= 0.0:  # a positive scalar base needs no check
        if n == 1.0:
            return u
        if n < 0.0:
            check(p == 0.0, DomainError, "zero base with negative exponent")
        elif n < 1.0:
            check(p == 0.0, NonDifferentiablePoint, f"power {n} is not differentiable at base 0")
        elif u.primal.__class__ is float and p == 0.0:  # a nested primal keeps its tangent
            return Dual(u.primal * 0.0, u.tangent * 0.0)
        if not n.is_integer():
            check(p < 0.0, DomainError, "negative base with non-integer exponent")
    return Dual(_generic_pow(u.primal, n), n * _generic_pow(u.primal, n - 1.0) * u.tangent)


def _generic_pow(base: Number, n: float):
    if isinstance(base, Dual):
        return _pow_const(base, n)
    return base**n if isinstance(base, np.ndarray) else float(base) ** n


def sin(u: Number):
    if isinstance(u, Dual):
        return Dual(sin(u.primal), cos(u.primal) * u.tangent)
    return _lib(u).sin(u)


def cos(u: Number):
    if isinstance(u, Dual):
        return Dual(cos(u.primal), -sin(u.primal) * u.tangent)
    return _lib(u).cos(u)


def exp(u: Number):
    if isinstance(u, Dual):
        e = exp(u.primal)
        return Dual(e, e * u.tangent)
    return _lib(u).exp(u)


def log(u: Number):
    if (bad := primal_value(u) <= 0.0) is not False:
        check(bad, DomainError, "log of a non-positive value")
    if isinstance(u, Dual):
        return Dual(log(u.primal), u.tangent / u.primal)
    return _lib(u).log(u)


def sqrt(u: Number):
    p = primal_value(u)
    if (bad := p < 0.0) is not False:
        check(bad, DomainError, "sqrt of a negative value")
    if isinstance(u, Dual):
        if (bad := p == 0.0) is not False:
            check(bad, NonDifferentiablePoint, "sqrt is not differentiable at 0")
        s = sqrt(u.primal)
        return Dual(s, u.tangent / (2.0 * s))
    return _lib(u).sqrt(u)


def fabs(u: Number):
    if isinstance(u, Dual):
        p = primal_value(u)
        check(
            (p == 0.0) & (primal_value(tangent_of(u)) != 0.0),
            NonDifferentiablePoint,
            "abs is not differentiable at 0",
        )
        if isinstance(p, np.ndarray):
            return Dual(fabs(u.primal), np.sign(p) * u.tangent)
        if p == 0.0:
            return Dual(u.primal * 0.0, u.tangent * 0.0)
        sign = 1.0 if p > 0.0 else -1.0
        return Dual(fabs(u.primal) if isinstance(u.primal, Dual) else abs(u.primal), sign * u.tangent)
    return abs(u)


def is_finite(u: Number):
    """Whether every component of u is finite: a bool, or a bool array for arrays."""
    if isinstance(u, Dual):
        return is_finite(u.primal) & is_finite(u.tangent)
    return np.isfinite(u) if isinstance(u, np.ndarray) else math.isfinite(u)
