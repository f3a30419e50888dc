"""Exception hierarchy shared across the package.

Numerical linear-algebra failures (non positive definite matrices and the
like) are deliberately left as ``numpy.linalg.LinAlgError``; everything the
package raises on its own derives from :class:`RiskEngineError`.
"""


class RiskEngineError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(RiskEngineError, ValueError):
    """An input violates a documented precondition or invariant."""


class ShapeError(ValidationError):
    """Dimensions or lengths of related inputs do not agree."""


class ParseError(ValidationError):
    """A text input could not be parsed.

    ``line_no`` is the 1-based line number of the offending record when
    known, so callers can point at the exact row of a bad CSV.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class InsufficientDataError(ValidationError):
    """Not enough observations for the requested operation."""


class DegenerateDataError(ValidationError):
    """Input has no usable variation (constant series, zero variance)."""


class NumericError(RiskEngineError, ArithmeticError):
    """A computation produced non-finite values or lost all precision."""


class TailEmptyError(NumericError):
    """An expected-shortfall tail contained no scenarios."""


class ConfigError(RiskEngineError, ValueError):
    """A run configuration is inconsistent or out of range."""


class RunFailureError(RiskEngineError):
    """A backtest run failed as a whole (too many invalid days)."""
