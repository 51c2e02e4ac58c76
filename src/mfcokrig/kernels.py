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
estimation) builds the stack once, in a ``Workspace`` that also holds
every buffer one evaluation writes.  Derivative matrices with respect to
``phi_k`` are ``R`` times the ratio ``(dr/dphi) / r``, which stays finite
wherever ``r > 0``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidArgumentError, real_array

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


@dataclass(frozen=True, eq=False)
class RangeParams:
    """Per-dimension range parameters ``phi`` with the log-inverse view.

    ``xi_k = log(1 / phi_k)`` is the parameterization the optimizer works
    in; ``phi`` and ``xi`` are exact bijections of one another.
    """

    phi: np.ndarray = field()

    def __post_init__(self):
        phi = np.atleast_1d(real_array(self.phi, "phi")).copy()
        if phi.ndim != 1:
            raise InvalidArgumentError("phi must be a 1-d vector")
        if not (np.isfinite(phi).all() and (phi > 0.0).all()):
            raise InvalidArgumentError(f"all range parameters must be finite and > 0, got {phi}")
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    @property
    def xi(self):
        """Log inverse ranges, ``-log(phi)``."""
        return -np.log(self.phi)

    @classmethod
    def from_xi(cls, xi):
        xi = np.atleast_1d(real_array(xi, "xi"))
        if not np.all(np.isfinite(xi)):
            raise InvalidArgumentError("xi must be finite")
        return cls(np.exp(-xi))

    @property
    def dims(self):
        return self.phi.shape[0]


def _check_design(X, dims, name="X"):
    X = real_array(X, name)
    if X.ndim != 2:
        raise InvalidArgumentError(f"design {name} must be 2-d, got shape {X.shape}")
    if X.shape[1] != dims:
        raise InvalidArgumentError(
            f"design {name} has {X.shape[1]} columns but the kernel expects {dims}"
        )
    if X.shape[0] < 1:
        raise InvalidArgumentError(f"design {name} must contain at least one row")
    if not np.all(np.isfinite(X)):
        raise InvalidArgumentError(f"design {name} contains non-finite entries")
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


def _correlate(T, phi, spec, derivs=False, out=None):
    """Correlation (no nugget) from a ``(d, n1, n2)`` distance stack, plus
    the stack of ``dR/dphi_k`` when ``derivs``.

    Every pass over an ``n x n`` slice writes into a buffer, since fresh
    temporaries of that size cost page faults: the buffers of the
    ``Workspace`` ``out``, or, without one, buffers allocated once per call.
    """
    d = T.shape[0]
    power = spec.shape if spec.family == POWER_EXPONENTIAL else 1.0
    fresh = out is None
    R = np.empty(T.shape[1:]) if fresh else out.R
    dR = None
    if derivs:
        dR = np.empty_like(T) if fresh else out.dR
    # out-of-range weights and ratios are capped or zeroed below
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.minimum(phi**-power, _MAX_WEIGHT)
        # -w gives the exponent -(w @ T) exactly: rounding is symmetric
        np.matmul(-w, T.reshape(d, -1), out=R.reshape(-1))
        np.exp(R, out=R)
        zero = None
        if not R.all():
            zero = np.equal(R, 0.0, out=None if fresh else out.zero)
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
            u, poly = (np.empty_like(R), np.empty_like(R)) if fresh else (out.u, out.poly)
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
                np.copyto(R, 0.0, where=zero)
        if derivs:
            dR *= R
            # the ratio can overflow where the correlation underflowed to
            # zero; those entries have exactly zero derivative
            if zero is not None:
                np.copyto(dR, 0.0, where=zero)
    return R, dR


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def distance_stack(X, spec):
    """Transformed coordinate distances of a design, shape ``(d, n, n)``.

    ``T[k, i, j]`` is ``|x_ik - x_jk|^alpha`` for power-exponential and
    ``sqrt(2 nu) |x_ik - x_jk|`` for Matern.  It does not depend on the
    ranges: a ``Workspace`` holds it for evaluating many ranges on one
    design.
    """
    X = _check_design(X, spec.dims)
    return _stack(X, X, spec)


class Workspace:
    """Buffers that many evaluations of ranges on one design reuse.

    Range estimation builds one per level, and the correlation builds take
    it as ``ws``, so an objective evaluation allocates no array of
    ``n x n`` or more.  It holds the distance stack ``stack``; ``R`` and
    its underflow mask ``zero``; the Matern 3/2 and 5/2 temporaries ``u``
    and ``poly``; and, with ``derivs`` (the Fisher-information priors), the
    derivative stack ``dR``, the trace operands ``W`` and their slice
    transposes ``WT`` (each ``(d, n, n)``), and the ``n x n`` scratch
    ``P`` and ``G``, in Fortran order so that LAPACK solves into ``P`` in
    place, and ``S``.  Whatever is built on a workspace, a factorization
    included, is overwritten by the next evaluation on it.
    """

    def __init__(self, X, spec, derivs=False):
        self.stack = distance_stack(X, spec)
        d, n, _ = self.stack.shape
        self.R = np.empty((n, n))
        self.zero = np.empty((n, n), dtype=bool)
        self.u = self.poly = None
        if spec.family == MATERN and spec.shape != 0.5:
            self.u = np.empty((n, n))
            self.poly = np.empty((n, n))
        self.dR = self.W = self.WT = self.P = self.G = self.S = None
        if derivs:
            self.dR = np.empty((d, n, n))
            self.W = np.empty((d, n, n))
            self.WT = np.empty((d, n, n))
            self.P = np.empty((n, n), order="F")
            self.G = np.empty((n, n), order="F")
            self.S = np.empty((n, n))


def _design_stack(X, spec, ws):
    """The distance stack of ``X``: a fresh one, or that of the workspace
    ``ws`` after checking it was built on a design of this size."""
    if ws is None:
        return distance_stack(X, spec)
    n = np.shape(X)[0]
    if ws.stack.shape != (spec.dims, n, n):
        raise InvalidArgumentError(
            f"workspace distance stack must have shape {(spec.dims, n, n)}, "
            f"got {ws.stack.shape}"
        )
    return ws.stack


def corr_matrix(X, params, spec, ws=None):
    """Correlation matrix of a design, with the spec's nugget on the diagonal.

    ``R[i, j]`` is the product over dimensions of the 1-d correlations of
    coordinate distances; the diagonal is ``1 + nugget``.  ``ws``, when
    given, is a ``Workspace`` built on ``X``; ``R`` is then its buffer,
    which the next call on it overwrites.
    """
    T = _design_stack(X, spec, ws)
    R, _ = _correlate(T, _check_params(params, spec), spec, out=ws)
    np.fill_diagonal(R, 1.0 + spec.nugget)
    return R


def cross_corr(X1, X2, params, spec):
    """Cross-correlation matrix between two designs (no nugget)."""
    X1 = _check_design(X1, spec.dims, "X1")
    X2 = _check_design(X2, spec.dims, "X2")
    phi = _check_params(params, spec)
    n1, n2 = X1.shape[0], X2.shape[0]
    block = max(1, _CROSS_BLOCK_BYTES // (8 * spec.dims * n1))
    if n2 <= block:
        return _correlate(_stack(X1, X2, spec), phi, spec)[0]
    C = np.empty((n1, n2))
    for j in range(0, n2, block):
        C[:, j : j + block] = _correlate(_stack(X1, X2[j : j + block], spec), phi, spec)[0]
    return C


def corr_matrix_with_derivs(X, params, spec, ws=None):
    """Correlation matrix together with all range-parameter derivatives.

    ``ws``, when given, is a ``Workspace`` built on ``X`` with ``derivs``,
    whose buffers then hold the results until the next call on it.

    Returns
    -------
    R : ndarray, shape (n, n)
        Correlation matrix including the nugget.
    dR : ndarray, shape (d, n, n)
        ``dR[k] = dR/dphi_k``; symmetric with zero diagonal (the nugget is
        constant in ``phi``).
    """
    T = _design_stack(X, spec, ws)
    if ws is not None and ws.dR is None:
        raise InvalidArgumentError("the workspace was built without derivative buffers")
    R, dR = _correlate(T, _check_params(params, spec), spec, derivs=True, out=ws)
    np.fill_diagonal(R, 1.0 + spec.nugget)
    return R, dR
