"""Typed errors raised by the library.

Every failure mode callers are expected to branch on has its own class;
plain ``ValueError``/``TypeError`` are reserved for programming mistakes.
``real_array`` is the one conversion of array arguments, and ``is_int``
and ``is_real`` the one test of scalar ones, so every entry point rejects
non-numeric input with the same typed error.
"""

import numbers

import numpy as np


class MfcokrigError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(MfcokrigError, ValueError):
    """An argument violates a documented precondition."""


class RangeOverflowError(InvalidArgumentError):
    """Range parameters so small that their kernel weights ``phi^-alpha``
    overflow; range estimation treats such ranges as infeasible."""


class SingularCorrelationError(MfcokrigError):
    """Cholesky factorization of a correlation matrix failed.

    Carries the range parameters that produced the singular matrix so the
    caller (typically the optimizer) can log and retreat.
    """

    def __init__(self, phi, level=None):
        self.phi = phi
        self.level = level
        where = f" at level {level}" if level is not None else ""
        super().__init__(f"correlation matrix is numerically singular{where} for phi={phi}")


class DesignRankError(MfcokrigError):
    """The regression design matrix is rank deficient (or a lower-level
    output column is collinear with the basis, making the scale link
    unidentifiable)."""


class DegenerateDataError(MfcokrigError):
    """The generalized residual sum of squares vanished: the outputs lie in
    the column space of the design, so the marginal posterior is undefined."""


class PriorEvaluationError(MfcokrigError):
    """A prior density could not be evaluated (e.g. a numerically singular
    Fisher information matrix)."""

    def __init__(self, message, phi=None):
        self.phi = phi
        if phi is not None:
            message = f"{message} (phi={phi})"
        super().__init__(message)


class NestingError(MfcokrigError):
    """Multi-level designs are not hierarchically nested."""


class DuplicateRowError(MfcokrigError):
    """A design contains duplicated input rows."""


class EstimationError(MfcokrigError):
    """All optimizer starts failed to produce a usable estimate."""


class VarianceUndefinedError(MfcokrigError):
    """Predictive variance requested with too few degrees of freedom."""


class DomainError(MfcokrigError, ValueError):
    """An input lies outside the documented physical box."""


class BenchmarkError(MfcokrigError):
    """Too many benchmark replicates failed to aggregate a report."""


class ConfigError(MfcokrigError):
    """A run configuration file is missing, unparsable, or inconsistent."""


def real_array(value, name):
    """``value`` as a C-contiguous float64 array; InvalidArgumentError
    naming ``name`` unless it holds real numbers (integers or floats, not
    booleans, complex numbers, strings or objects) in a rectangular shape."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise InvalidArgumentError(f"{name} must be a rectangular array ({exc})") from exc
    if arr.dtype.kind not in "iuf":
        raise InvalidArgumentError(
            f"{name} must hold real numbers, got dtype {arr.dtype}"
        )
    return np.ascontiguousarray(arr, dtype=np.float64)


def require_types(*checks):
    """Raise InvalidArgumentError naming the first ``(name, value, cls)``
    of ``checks`` whose value is not an instance of ``cls``."""
    for name, value, cls in checks:
        if not isinstance(value, cls):
            raise InvalidArgumentError(f"{name} must be a {cls.__name__}, got {value!r}")


def is_int(value):
    """Whether ``value`` is an integer (Python or numpy), not a boolean."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value):
    """Whether ``value`` is a real number (Python or numpy), not a boolean."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
