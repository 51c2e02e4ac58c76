"""Product-form correlation functions and their range-parameter derivatives.

Two families are supported:

* power-exponential, ``r(h) = exp(-(h/phi)^alpha)`` with ``0 < alpha < 2``;
* Matern with half-integer smoothness ``nu in {1/2, 3/2, 5/2}``, evaluated
  through the closed forms in ``u = sqrt(2 nu) h / phi``.

Correlation over d-dimensional inputs is the product of the per-dimension
functions, each with its own range parameter ``phi_k``.  Both families are
assembled from a stack of transformed coordinate distances ``T_k`` that does
not depend on the ranges (``|dx_k|^alpha``, or ``sqrt(2 nu)|dx_k|``):

* power-exponential: ``R = exp(-sum_k phi_k^-alpha T_k)``;
* Matern: ``R = exp(-sum_k u_k) prod_k poly(u_k)`` with ``u_k = T_k / phi_k``.

So a correlation matrix costs one weighted sum over the stack and one
``exp``, and a caller that evaluates many ranges on one design (range
estimation) builds the stack once with ``distance_stack``.  Derivative
matrices with respect to ``phi_k`` are ``R`` times the ratio
``(dr/dphi) / r``, which stays finite wherever ``r > 0``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidArgumentError

POWER_EXPONENTIAL = "power_exponential"
MATERN = "matern"
_FAMILIES = (POWER_EXPONENTIAL, MATERN)
_MATERN_SHAPES = (0.5, 1.5, 2.5)
MAX_NUGGET = 1e-4
DEFAULT_NUGGET = 1e-10

# cap on the per-dimension multipliers of the distance stack: phi^-alpha
# overflows for phi below about 1e-162, and inf * 0 at coincident points
# would give nan where the correlation factor is exactly 1
_MAX_WEIGHT = np.finfo(np.float64).max
# cross-correlations are assembled in column blocks whose distance stack
# stays below this many bytes
_CROSS_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class KernelSpec:
    """Configuration of a product-form correlation family.

    Parameters
    ----------
    family : str
        ``"power_exponential"`` or ``"matern"``.
    shape : float, optional
        Roughness ``alpha`` in ``(0, 2)`` for power-exponential (default
        1.9), or smoothness ``nu`` in ``{0.5, 1.5, 2.5}`` for Matern
        (default 2.5).  Fixed by configuration, never estimated.
    dims : int
        Input dimension ``d``.
    nugget : float
        Diagonal jitter added to correlation matrices, in ``[0, 1e-4]``.
    """

    family: str
    shape: float = None
    dims: int = 1
    nugget: float = DEFAULT_NUGGET

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidArgumentError(
                f"unknown kernel family {self.family!r}; expected one of {_FAMILIES}"
            )
        if self.shape is None:
            object.__setattr__(
                self, "shape", 1.9 if self.family == POWER_EXPONENTIAL else 2.5
            )
        shape = float(self.shape)
        object.__setattr__(self, "shape", shape)
        if not math.isfinite(shape):
            raise InvalidArgumentError("kernel shape must be finite")
        if self.family == POWER_EXPONENTIAL:
            if not 0.0 < shape < 2.0:
                raise InvalidArgumentError(
                    f"power-exponential roughness must lie in (0, 2), got {shape}"
                )
        else:
            if shape not in _MATERN_SHAPES:
                raise InvalidArgumentError(
                    f"Matern smoothness must be one of {_MATERN_SHAPES}, got {shape}"
                )
        if not isinstance(self.dims, (int, np.integer)) or self.dims < 1:
            raise InvalidArgumentError(f"dims must be a positive integer, got {self.dims}")
        object.__setattr__(self, "dims", int(self.dims))
        nugget = float(self.nugget)
        object.__setattr__(self, "nugget", nugget)
        if not (0.0 <= nugget <= MAX_NUGGET):
            raise InvalidArgumentError(
                f"nugget must lie in [0, {MAX_NUGGET}], got {nugget}"
            )

    def to_dict(self):
        return {
            "family": self.family,
            "shape": self.shape,
            "dims": self.dims,
            "nugget": self.nugget,
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            family=payload["family"],
            shape=payload["shape"],
            dims=payload["dims"],
            nugget=payload["nugget"],
        )


@dataclass(frozen=True, eq=False)
class RangeParams:
    """Per-dimension range parameters ``phi`` with the log-inverse view.

    ``xi_k = log(1 / phi_k)`` is the parameterization the optimizer works
    in; ``phi`` and ``xi`` are exact bijections of one another.
    """

    phi: np.ndarray = field()

    def __post_init__(self):
        phi = np.atleast_1d(np.asarray(self.phi, dtype=np.float64)).copy()
        if phi.ndim != 1:
            raise InvalidArgumentError("phi must be a 1-d vector")
        if not np.all(np.isfinite(phi)) or np.any(phi <= 0.0):
            raise InvalidArgumentError(f"all range parameters must be finite and > 0, got {phi}")
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    @property
    def xi(self):
        """Log inverse ranges, ``-log(phi)``."""
        return -np.log(self.phi)

    @classmethod
    def from_xi(cls, xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
        if not np.all(np.isfinite(xi)):
            raise InvalidArgumentError("xi must be finite")
        return cls(np.exp(-xi))

    @property
    def dims(self):
        return self.phi.shape[0]


def _check_design(X, dims):
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidArgumentError(f"design must be 2-d, got shape {X.shape}")
    if X.shape[1] != dims:
        raise InvalidArgumentError(
            f"design has {X.shape[1]} columns but the kernel expects {dims}"
        )
    if X.shape[0] < 1:
        raise InvalidArgumentError("design must contain at least one row")
    if not np.all(np.isfinite(X)):
        raise InvalidArgumentError("design contains non-finite entries")
    return X


def _check_params(params, spec):
    if params.dims != spec.dims:
        raise InvalidArgumentError(
            f"params have {params.dims} ranges but the kernel expects {spec.dims}"
        )
    return params.phi


# ---------------------------------------------------------------------------
# stack assembly
# ---------------------------------------------------------------------------


def _stack(X1, X2, spec):
    """Transformed distances ``T[k, i, j]`` between rows of two designs,
    written straight into one ``(d, n1, n2)`` array."""
    T = np.empty((X1.shape[1], X1.shape[0], X2.shape[0]))
    np.subtract(X1.T[:, :, None], X2.T[:, None, :], out=T)
    np.abs(T, out=T)
    if spec.family == POWER_EXPONENTIAL:
        np.power(T, spec.shape, out=T)
    else:
        T *= math.sqrt(2.0 * spec.shape)
    return T


def _correlate(T, phi, spec, derivs=False):
    """Correlation (no nugget) from a ``(d, n1, n2)`` distance stack, plus
    the stack of ``dR/dphi_k`` when ``derivs``.

    Every pass over an ``n x n`` slice writes into a buffer allocated once
    per call, since fresh temporaries of that size cost page faults.
    """
    d = T.shape[0]
    power = spec.shape if spec.family == POWER_EXPONENTIAL else 1.0
    # out-of-range weights and ratios are capped or zeroed below
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.minimum(phi**-power, _MAX_WEIGHT)
        R = w @ T.reshape(d, -1)
        np.negative(R, out=R)
        R = np.exp(R, out=R).reshape(T.shape[1:])
        zero = None if R.all() else R == 0.0
        dR = np.empty_like(T) if derivs else None
        if spec.family == POWER_EXPONENTIAL:
            if derivs:
                # (dr/dphi) / r = alpha h^alpha / phi^(alpha + 1)
                c = np.minimum(power * w / phi, _MAX_WEIGHT)
                np.multiply(T, c[:, None, None], out=dR)
        elif spec.shape == 0.5:
            if derivs:
                # (dr/dphi) / r = u / phi = T / phi^2
                np.multiply(T, np.minimum(w * w, _MAX_WEIGHT)[:, None, None], out=dR)
        else:
            u = np.empty_like(R)
            poly = np.empty_like(R)
            for k in range(d):
                np.multiply(T[k], w[k], out=u)
                # poly = 1 + u, or 1 + u (1 + u / 3)
                if spec.shape == 1.5:
                    np.add(u, 1.0, out=poly)
                else:
                    np.multiply(u, 1.0 / 3.0, out=poly)
                    poly += 1.0
                    poly *= u
                    poly += 1.0
                R *= poly
                if derivs:
                    # (dr/dphi) / r = u^2 / (phi poly), times (1 + u) / 3 for 5/2
                    ratio = dR[k]
                    np.multiply(u, u, out=ratio)
                    ratio /= poly
                    if spec.shape == 2.5:
                        u += 1.0
                        u *= 1.0 / 3.0
                        ratio *= u
                    ratio *= w[k]
            if zero is not None:
                # a polynomial factor overflows only where exp(-sum u) is 0
                R[zero] = 0.0
        if derivs:
            dR *= R
            # the ratio can overflow where the correlation underflowed to
            # zero; those entries have exactly zero derivative
            if zero is not None:
                dR[:, zero] = 0.0
    return R, dR


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def corr1d(h, phi, spec):
    """One-dimensional correlation ``r(h)`` for distance ``h`` and range ``phi``.

    Parameters
    ----------
    h : float or array_like
        Nonnegative distances.
    phi : float
        Positive range parameter.
    spec : KernelSpec
        Family and shape; ``dims`` and ``nugget`` are ignored here.

    Returns
    -------
    float or ndarray
        Correlation values in ``(0, 1]``, with ``r(0) = 1``.
    """
    h_arr = np.asarray(h, dtype=np.float64)
    if not np.all(np.isfinite(h_arr)) or np.any(h_arr < 0.0):
        raise InvalidArgumentError("distances must be finite and >= 0")
    if not math.isfinite(phi) or phi <= 0.0:
        raise InvalidArgumentError(f"range parameter must be finite and > 0, got {phi}")
    T = _stack(h_arr.reshape(-1, 1), np.zeros((1, 1)), spec)
    out, _ = _correlate(T, np.array([float(phi)]), spec)
    if np.isscalar(h) or h_arr.ndim == 0:
        return float(out[0, 0])
    return out.reshape(h_arr.shape)


def distance_stack(X, spec):
    """Transformed coordinate distances of a design, shape ``(d, n, n)``.

    ``T[k, i, j]`` is ``|x_ik - x_jk|^alpha`` for power-exponential and
    ``sqrt(2 nu) |x_ik - x_jk|`` for Matern.  It does not depend on the
    ranges: pass it as ``stack`` to ``corr_matrix`` and
    ``corr_matrix_with_derivs`` when evaluating many ranges on one design.
    """
    X = _check_design(X, spec.dims)
    return _stack(X, X, spec)


def _design_stack(X, spec, stack):
    if stack is None:
        return distance_stack(X, spec)
    n = np.shape(X)[0]
    if np.shape(stack) != (spec.dims, n, n):
        raise InvalidArgumentError(
            f"distance stack must have shape {(spec.dims, n, n)}, got {np.shape(stack)}"
        )
    return stack


def corr_matrix(X, params, spec, stack=None):
    """Correlation matrix of a design, with the spec's nugget on the diagonal.

    ``R[i, j]`` is the product over dimensions of the 1-d correlations of
    coordinate distances; the diagonal is ``1 + nugget``.  ``stack``, when
    given, is ``distance_stack(X, spec)``.
    """
    T = _design_stack(X, spec, stack)
    R, _ = _correlate(T, _check_params(params, spec), spec)
    np.fill_diagonal(R, 1.0 + spec.nugget)
    return R


def cross_corr(X1, X2, params, spec):
    """Cross-correlation matrix between two designs (no nugget)."""
    X1 = _check_design(X1, spec.dims)
    X2 = _check_design(X2, spec.dims)
    phi = _check_params(params, spec)
    n1, n2 = X1.shape[0], X2.shape[0]
    block = max(1, _CROSS_BLOCK_BYTES // (8 * spec.dims * n1))
    if n2 <= block:
        return _correlate(_stack(X1, X2, spec), phi, spec)[0]
    C = np.empty((n1, n2))
    for j in range(0, n2, block):
        C[:, j : j + block] = _correlate(_stack(X1, X2[j : j + block], spec), phi, spec)[0]
    return C


def corr_matrix_with_derivs(X, params, spec, stack=None):
    """Correlation matrix together with all range-parameter derivatives.

    ``stack``, when given, is ``distance_stack(X, spec)``.

    Returns
    -------
    R : ndarray, shape (n, n)
        Correlation matrix including the nugget.
    dR : ndarray, shape (d, n, n)
        ``dR[k] = dR/dphi_k``; symmetric with zero diagonal (the nugget is
        constant in ``phi``).
    """
    T = _design_stack(X, spec, stack)
    R, dR = _correlate(T, _check_params(params, spec), spec, derivs=True)
    np.fill_diagonal(R, 1.0 + spec.nugget)
    return R, dR


def corr_matrix_deriv(X, params, spec, k):
    """Derivative of the correlation matrix with respect to ``phi_k``.

    ``k`` is a zero-based dimension index.
    """
    if not isinstance(k, (int, np.integer)) or not 0 <= k < spec.dims:
        raise InvalidArgumentError(
            f"dimension index must satisfy 0 <= k < {spec.dims}, got {k}"
        )
    return corr_matrix_with_derivs(X, params, spec)[1][int(k)]
