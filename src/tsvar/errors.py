"""Exception types shared across the package."""

from __future__ import annotations


class TsvarError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(TsvarError):
    """A constructor or operation argument violates its contract."""


class PointNotInScale(TsvarError):
    """The given real is not a member of the time scale."""


class EmptyInterval(TsvarError):
    """Interval endpoints do not satisfy t0 < t1."""


class AtScaleMaximum(TsvarError):
    """Delta derivative requested at a left-scattered maximum (outside T^kappa)."""


class ReversedBounds(TsvarError):
    """Integration bounds given in decreasing order."""


class ExpressionSyntaxError(TsvarError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifier(TsvarError):
    """Expression uses a name that is neither a variable nor a known function."""


class DomainError(TsvarError):
    """Evaluation left the domain of a sub-expression (log of non-positive, division by zero, ...)."""


class NonDifferentiablePoint(TsvarError):
    """Derivative requested where it does not exist (abs at 0)."""


class InsufficientPoints(TsvarError):
    """Too few scale points in the window for the requested operation."""


class InvalidSpikeLocation(TsvarError):
    """Spike perturbation placed at a dense point or too close to the right endpoint."""


class NonConvergence(TsvarError):
    """Newton iteration did not reach tolerance; carries the best iterate, its L and diagnostics."""

    def __init__(
        self,
        message: str,
        best=None,
        iterations: int = 0,
        residual_max: float = float("inf"),
        functional: float = float("nan"),
        history: tuple = (),
    ):
        super().__init__(message)
        self.best = best
        self.iterations = iterations
        self.residual_max = residual_max
        # L at the best iterate
        self.functional = functional
        # (residual max-norm, accepted step length, L) per completed Newton iteration
        self.history = history


class ProblemFileError(TsvarError):
    """A problem-file field or a scan flag failed validation; carries its path or flag as field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
