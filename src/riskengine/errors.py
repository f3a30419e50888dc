"""Exception hierarchy shared across the package, and _scratch, the one
check of the caller-owned out= and work= arrays that kernels take.

Numerical linear-algebra failures (non positive definite matrices and the
like) are deliberately left as ``numpy.linalg.LinAlgError``; everything the
package raises on its own derives from :class:`RiskEngineError`.
"""

import numpy as np


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


def _scratch(array, shape, name: str):
    """A caller's out= or work= array as a float64 array shaped shape.

    None stays None. out must be a float64 array of exactly that shape and
    is returned; work a flat float64 array of at least prod(shape)
    entries, whose leading entries are returned reshaped. Either must be
    writable and C-contiguous, or a kernel would fail inside numpy or, for a
    strided work, write into a copy. Another dtype, which numpy would cast
    into silently, a read-only or a strided array is a ValidationError; a
    wrong shape or too few entries a ShapeError.
    """
    if array is None:
        return None
    if not isinstance(array, np.ndarray) or array.dtype != np.float64:
        got = getattr(array, "dtype", type(array).__name__)
        raise ValidationError(f"{name} must be a float64 array, got {got}")
    if not (array.flags.writeable and array.flags.c_contiguous):
        raise ValidationError(f"{name} must be a writable C-contiguous array")
    if name == "out":
        if array.shape != shape:
            raise ShapeError(f"out must be shaped {shape}, got {array.shape}")
        return array
    size = int(np.prod(shape))
    if array.ndim != 1 or array.size < size:
        raise ShapeError(f"{name} must be flat with {size} entries or more, got {array.shape}")
    return array[:size].reshape(shape)
