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
every buffer one evaluation writes.  ``R`` is symmetric, so its builds run
over a packed stack of the ``n(n-1)/2`` distinct row pairs, shape
``(d, n(n-1)/2)``, and one gather expands the result into the full matrix
with the diagonal ``1 + nugget``; ``corr_matrix`` and
``corr_matrix_with_derivs`` share that path and give the same ``R`` bit for
bit.  The rectangular ``cross_corr`` keeps a full ``(d, n1, n2)`` stack.

Every range derivative has one representation over the pairs, rows ``A``
and constants ``c`` with ``c[k] A[k] = -(dr/dxi_k) / r``
(``_derivative_rows``): the pair stack for power-exponential and Matern
1/2, and the ratios the polynomial passes of the build write for Matern
3/2 and 5/2.  So ``xi_gradient``, which contracts the derivatives with one
weight per pair, is one gemv of ``A``, and the derivative stack
``dR/dphi_k`` that the Fisher products read in whole slices is ``A`` scaled
by ``c / phi`` and by the pair correlations, then gathered into full
``(d, n, n)`` slices like ``R``.  The kernel is a product, so its second
derivatives follow from the first and from one ratio per dimension,
``m_k`` of ``curvature_dot``: a constant, or for Matern 3/2 and 5/2 one
more polynomial pass over the pairs.  Ranges so small that their
multipliers ``phi^-alpha``, or for the derivative stack the scales
``c / phi``, overflow raise ``RangeOverflowError``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidArgumentError, RangeOverflowError, is_int, is_real, real_array

POWER_EXPONENTIAL = "power_exponential"
MATERN = "matern"
_FAMILIES = (POWER_EXPONENTIAL, MATERN)
_MATERN_SHAPES = (0.5, 1.5, 2.5)
MAX_NUGGET = 1e-4
DEFAULT_NUGGET = 1e-10

# the largest kernel weight phi^-alpha; ranges whose weights, or whose
# derivative scales c / phi, exceed it raise RangeOverflowError
_MAX_WEIGHT = np.finfo(np.float64).max
# cross-correlations are assembled in column blocks whose distance stack
# stays below this many bytes
_CROSS_BLOCK_BYTES = 1 << 20
# a workspace's pair stack has zero columns up to a multiple of this width:
# BLAS gemv kernels compute their outputs in blocks and round the last
# (length mod block) by another path, so without them the last few pairs of
# R differed from the full n x n layout's entries by an ulp of the exponent
_PAD = 8


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
        if not is_real(self.shape) or not math.isfinite(self.shape):
            raise InvalidArgumentError(f"kernel shape must be a finite number, got {self.shape!r}")
        shape = float(self.shape)
        object.__setattr__(self, "shape", shape)
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
        if not is_int(self.dims) or self.dims < 1:
            raise InvalidArgumentError(f"dims must be a positive integer, got {self.dims!r}")
        object.__setattr__(self, "dims", int(self.dims))
        if not (is_real(self.nugget) and 0.0 <= self.nugget <= MAX_NUGGET):
            raise InvalidArgumentError(
                f"nugget must be a number in [0, {MAX_NUGGET}], got {self.nugget!r}"
            )
        object.__setattr__(self, "nugget", float(self.nugget))


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


def _power(spec):
    """Exponent of the range in the weights: ``alpha``, or 1 for Matern."""
    return spec.shape if spec.family == POWER_EXPONENTIAL else 1.0


def _weights(phi, spec):
    """Multipliers of the distance stack, ``phi^-alpha`` or ``1 / phi``.

    Raises ``RangeOverflowError``, an ``InvalidArgumentError``, for ranges
    whose multiplier overflows: below ``MAX^(-1/alpha)`` (about 1e-162 for
    power-exponential 1.9), with a relative margin of 1e-12 for the
    rounding of both powers.  Their exponents cannot be formed, and a
    capped multiplier would read a correlation of 1 where the true one is
    ``exp(-1e96)``.
    """
    power = _power(spec)
    if not phi.min() >= _MAX_WEIGHT ** (-1.0 / power) * (1.0 + 1e-12):
        raise RangeOverflowError(
            f"ranges {phi} are too small: their weights phi^-{power:g} overflow"
        )
    return phi**-power


def _check_params(params, spec):
    """The ranges ``phi`` and their ``_weights``."""
    if params.dims != spec.dims:
        raise InvalidArgumentError(
            f"params have {params.dims} ranges but the kernel expects {spec.dims}"
        )
    return params.phi, _weights(params.phi, spec)



# ---------------------------------------------------------------------------
# stack assembly
# ---------------------------------------------------------------------------


def _transform(T, spec):
    """Coordinate differences ``dx`` to ``|dx|^alpha`` or ``sqrt(2 nu)|dx|``,
    in place."""
    np.abs(T, out=T)
    if spec.family == POWER_EXPONENTIAL:
        # a distance that overflows reads inf, and its correlation 0
        with np.errstate(over="ignore"):
            np.power(T, spec.shape, out=T)
    else:
        T *= math.sqrt(2.0 * spec.shape)
    return T


def _stack(X1, X2, spec):
    """Transformed distances ``T[k, i, j]`` between rows of two designs,
    written straight into one ``(d, n1, n2)`` array."""
    T = np.empty((X1.shape[1], X1.shape[0], X2.shape[0]))
    np.subtract(X1.T[:, :, None], X2.T[:, None, :], out=T)
    return _transform(T, spec)


def _pair_stack(X, spec, width):
    """Transformed distances of the row pairs ``(i, j)``, ``i < j``, of the
    checked design ``X``, in the row-major order of the strict upper
    triangle, in the leading columns of a ``(d, width)`` array whose other
    columns are zero."""
    i, j = np.triu_indices(X.shape[0], 1)
    T = np.zeros((X.shape[1], width))
    for k, x in enumerate(X.T):
        np.subtract(x[i], x[j], out=T[k, : i.size])
    return _transform(T, spec)


def _gather_index(n):
    """For each flat position of an ``n x n`` matrix, its slot in the packed
    strict upper triangle: ``(i, j)`` and ``(j, i)`` read the slot of pair
    ``(i, j)``, and the diagonal reads the slot ``n(n-1)/2`` after them."""
    i, j = np.triu_indices(n, 1)
    index = np.full((n, n), i.size, dtype=np.intp)
    index[i, j] = index[j, i] = np.arange(i.size)
    return index.reshape(-1)


def _polynomial(spec):
    """Whether the family has a polynomial factor: Matern 3/2 and 5/2."""
    return spec.family == MATERN and spec.shape != 0.5


def _correlate(T, w, spec, R, ws=None):
    """Correlation (no nugget) over the trailing axes of the distance stack
    ``T`` with weights ``w``, written into ``R``, which it returns.  For
    Matern 3/2 and 5/2 on a workspace ``ws`` with ``ratios``, the same
    polynomial passes write there the rows ``A`` of ``_derivative_rows``:
    ``u^2 / poly`` or ``u^2 (1 + u) / poly``, zero where the correlation
    underflowed.

    Every pass writes into a buffer, since fresh temporaries of the size of
    ``R`` cost page faults: the ``zero``, ``u`` and ``poly`` of ``ws``, or,
    without one (``cross_corr``), buffers allocated once per call.  Callers
    ignore floating-point overflow and invalid operations: out-of-range
    exponents, factors and ratios are zeroed here.
    """
    d = T.shape[0]
    # -w gives the exponent -(w @ T) exactly: rounding is symmetric
    np.matmul(-w, T.reshape(d, -1), out=R.reshape(-1))
    np.exp(R, out=R)
    if not _polynomial(spec):
        return R
    if ws is None:
        u, poly, ratios = np.empty_like(R), np.empty_like(R), None
    else:
        u, poly, ratios = ws.u, ws.poly, ws.ratios
    zero = None
    if not R.all():
        zero = np.equal(R, 0.0, out=None if ws is None else ws.zero)
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
        if ratios is not None:
            ratio = ratios[k]
            np.multiply(u, u, out=ratio)
            if spec.shape == 2.5:
                u += 1.0
                ratio *= u
            ratio /= poly
    if zero is not None:
        # a polynomial factor overflows only where exp(-sum u) is 0, and
        # the ratio there too; those entries have exactly zero derivative
        np.copyto(R, 0.0, where=zero)
        if ratios is not None:
            np.copyto(ratios, 0.0, where=zero)
    return R


def _derivative_rows(ws, phi):
    """The range derivatives of the last build on the workspace ``ws``, at
    ranges ``phi``, as rows ``A`` over its pairs (a buffer of ``ws``) and
    per-dimension constants ``c``: ``c[k] A[k] = -(dr/dxi_k) / r``, with
    ``xi_k = -log(phi_k)``.  For power-exponential and Matern 1/2, ``A`` is
    the pair stack and ``c = alpha phi^-alpha`` (alpha 1 for Matern); for
    Matern 3/2 and 5/2, ``A`` is the build's ``ratios`` and ``c`` is 1 or
    1/3, one float for every dimension.
    """
    spec = ws.spec
    if not _polynomial(spec):
        return ws.stack, _power(spec) * _weights(phi, spec)
    return ws.ratios, 1.0 if spec.shape == 1.5 else 1.0 / 3.0


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


class Workspace:
    """Buffers that many evaluations of ranges on one design reuse.

    Range estimation builds one per level, and the correlation builds take
    it as ``ws``, so an objective evaluation allocates no array of
    ``n x n`` or more.  It records the design ``X`` and the ``spec`` it was
    built on, and a build on another design or spec is refused.

    A build runs over the ``m = n(n-1)/2`` distinct row pairs, which hold
    every off-diagonal value of the symmetric ``R``, and one gather through
    ``index`` then expands them into the full matrix.  The workspace holds
    the pair stack ``stack``, padded with zero columns to a width above
    ``m``; over that width, the correlations ``pairs``, whose slot ``m``
    holds the diagonal ``1 + nugget``, their underflow mask ``zero`` (for
    Matern 3/2 and 5/2, or with ``derivs``) and, for Matern 3/2 and 5/2,
    the temporaries ``u`` and ``poly``; and the gathered ``R``.

    With ``derivs`` or ``grad``, Matern 3/2 and 5/2 also hold the
    ``(d, width)`` derivative rows ``ratios`` (``_derivative_rows``), which
    every build then fills; a value-only workspace holds none, since
    filling them took a model build (``CokrigingModel``, n=200/60, Matern
    5/2) from 6.0 to 7.5 ms.  Both also hold the flat positions ``upper``
    of the pairs ``(i, j)``, ``i < j``, in an ``n x n`` matrix, where
    ``gp.gls_projector``'s triangle is read, and the weights ``gpairs`` of
    the xi-gradient over the pairs, zero from slot ``m`` on.  With
    ``grad`` alone (the objectives without a Fisher-information prior) it
    holds no ``(d, n, n)`` array.  With ``derivs`` (the Fisher-information
    priors, whose gradient it serves too) it holds the derivative stack
    ``dR``, full because the Fisher products read whole slices of it, and
    for every family the ``(d, width)`` pair derivatives ``dpairs`` that a
    build scales from the rows ``A`` and gathers into it.  It then holds
    too the trace operands ``W`` and their slice transposes ``WT`` (each
    ``(d, n, n)``), the mirrored positions ``lower`` of the pairs,
    ``(j, i)``, and the Fisher gradient's ``n x n`` matrix ``scratch`` and
    two rows over the pairs, ``pair_scratch``.  Whatever is built on a
    workspace, a factorization included, is overwritten by the next
    evaluation on it.
    """

    def __init__(self, X, spec, derivs=False, grad=False):
        self.X = _check_design(X, spec.dims)
        self.spec = spec
        n, d = self.X.shape
        width = (n * (n - 1) // 2 // _PAD + 1) * _PAD
        self.stack = _pair_stack(self.X, spec, width)
        self.index = _gather_index(n)
        self.pairs = np.empty(width)
        polynomial = _polynomial(spec)
        self.zero = self.u = self.poly = None
        if polynomial or derivs:
            self.zero = np.empty(width, dtype=bool)
        if polynomial:
            self.u = np.empty(width)
            self.poly = np.empty(width)
        self.R = np.empty((n, n))
        self.dpairs = self.dR = self.W = self.WT = None
        self.scratch = self.pair_scratch = None
        self.gpairs = self.upper = self.lower = self.ratios = None
        if grad or derivs:
            i, j = np.triu_indices(n, 1)
            self.upper = i * n + j
            self.gpairs = np.zeros(width)
        if polynomial and (grad or derivs):
            self.ratios = np.empty((d, width))
        if derivs:
            self.dpairs = np.empty((d, width))
            self.dR = np.empty((d, n, n))
            self.W = np.empty((d, n, n))
            self.WT = np.empty((d, n, n))
            self.scratch = np.empty((n, n))
            self.pair_scratch = np.empty((2, width))
            self.lower = j * n + i


def _workspace(X, spec, ws, derivs):
    """``ws`` after checking that it was built on the design ``X`` and on
    ``spec``, with derivative buffers when ``derivs``; a fresh workspace
    when it is None.  The fit path passes the very design the workspace
    was built on, which the identity test accepts at no cost."""
    if ws is None:
        return Workspace(X, spec, derivs=derivs)
    if spec is not ws.spec and spec != ws.spec:
        raise InvalidArgumentError(f"the workspace was built for {ws.spec}, not for {spec}")
    if X is not ws.X and not np.array_equal(_check_design(X, spec.dims), ws.X):
        raise InvalidArgumentError(
            f"the workspace was built on another design (shape {ws.X.shape}, "
            f"got {np.shape(X)})"
        )
    if derivs and ws.dR is None:
        raise InvalidArgumentError("the workspace was built without derivative buffers")
    return ws


def _build(X, params, spec, ws, derivs):
    """Correlation matrix of ``X``, and its derivative stack when
    ``derivs``, into the workspace ``ws`` (or a fresh one), which it
    returns: ``R`` is computed over the distinct pairs and gathered."""
    ws = _workspace(X, spec, ws, derivs)
    phi, w = _check_params(params, spec)
    # out-of-range ratios are zeroed
    with np.errstate(over="ignore", invalid="ignore"):
        _correlate(ws.stack, w, spec, ws.pairs, ws)
        # slot m has zero distances, so its correlation came out 1 and its
        # derivative rows 0; the diagonal is read from it
        ws.pairs[ws.index[0]] = 1.0 + spec.nugget
        # mode="clip" gathers straight into the output; the default "raise"
        # buffers the whole output first (every index is in range either way)
        np.take(ws.pairs, ws.index, out=ws.R.reshape(-1), mode="clip")
        if derivs:
            # dR_k / dphi_k = r c_k A_k / phi_k over the pairs, slice by
            # slice, as a broadcast product allocates an iteration buffer;
            # A stays as it is for the xi-gradient
            A, c = _derivative_rows(ws, phi)
            scale = c / phi
            if not np.isfinite(scale).all():
                raise RangeOverflowError(
                    f"ranges {phi} are too small: their derivative scales overflow"
                )
            for A_k, s_k, D_k in zip(A, scale, ws.dpairs):
                np.multiply(A_k, s_k, out=D_k)
                D_k *= ws.pairs
            # the ratio can overflow where the correlation underflowed to 0
            if not ws.pairs.all():
                np.copyto(ws.dpairs, 0.0, where=np.equal(ws.pairs, 0.0, out=ws.zero))
            np.take(ws.dpairs, ws.index, axis=1, out=ws.dR.reshape(spec.dims, -1), mode="clip")
    return ws


def corr_matrix(X, params, spec, ws=None):
    """Correlation matrix of a design, with the spec's nugget on the diagonal.

    ``R[i, j]`` is the product over dimensions of the 1-d correlations of
    coordinate distances; the diagonal is ``1 + nugget``.  It is exactly
    symmetric.  ``ws``, when given, is a ``Workspace`` built on ``X`` and
    ``spec``; ``R`` is then its buffer, which the next call on it
    overwrites.
    """
    return _build(X, params, spec, ws, False).R


def cross_corr(X1, X2, params, spec):
    """Cross-correlation matrix between two designs (no nugget)."""
    X1 = _check_design(X1, spec.dims, "X1")
    X2 = _check_design(X2, spec.dims, "X2")
    w = _check_params(params, spec)[1]
    n1, n2 = X1.shape[0], X2.shape[0]

    def block_corr(X2_block):
        T = _stack(X1, X2_block, spec)
        with np.errstate(over="ignore", invalid="ignore"):
            return _correlate(T, w, spec, np.empty(T.shape[1:]))

    block = max(1, _CROSS_BLOCK_BYTES // (8 * spec.dims * n1))
    if n2 <= block:
        return block_corr(X2)
    C = np.empty((n1, n2))
    for j in range(0, n2, block):
        C[:, j : j + block] = block_corr(X2[j : j + block])
    return C


def corr_matrix_with_derivs(X, params, spec, ws=None):
    """Correlation matrix together with all range-parameter derivatives.

    ``R`` is bit for bit the matrix ``corr_matrix`` builds.  ``ws``, when
    given, is a ``Workspace`` built on ``X`` and ``spec`` with ``derivs``,
    whose buffers then hold the results until the next call on it.

    Returns
    -------
    R : ndarray, shape (n, n)
        Correlation matrix including the nugget.
    dR : ndarray, shape (d, n, n)
        ``dR[k] = dR/dphi_k``; symmetric with zero diagonal (the nugget is
        constant in ``phi``).
    """
    ws = _build(X, params, spec, ws, True)
    return ws.R, ws.dR


def xi_gradient(ws, params, out):
    """``sum_p (dr_k/dxi_k)[p] g[p] / r[p]`` over the distinct pairs, with
    ``xi_k = -log(phi_k)``, into ``out``, shape ``(d,)``: the derivatives
    of ``log r_k`` contracted with the weights ``g`` in ``ws.gpairs``
    (zero from slot ``n(n-1)/2`` on).

    ``ws`` is a ``Workspace`` built with ``grad`` or ``derivs``, holding
    the last build at ``params``.  A caller that contracts ``dR_k`` with
    weights ``h`` passes ``g = r h``.  Over the pairs ``d log r_k / dxi_k``
    is ``-c_k A_k`` (``_derivative_rows``), so the whole gradient is one
    gemv of ``A``; no ``(d, n, n)`` array is formed.
    """
    A, c = _derivative_rows(ws, params.phi)
    with np.errstate(invalid="ignore"):
        np.matmul(A, ws.gpairs, out=out)
    if not np.isfinite(out).all():
        # coordinates about 1e162 or more apart overflow the pair stack to
        # inf (power-exponential 1.9); the pair's correlation is then 0,
        # and so is its weight, so the pair adds 0, not inf * 0
        live = ws.gpairs != 0.0
        np.matmul(A[:, live], ws.gpairs[live], out=out)
    out *= -c
    return out


def curvature_dot(ws, params, k, x):
    """``sum_p x[p] m_k[p]`` over the first ``len(x)`` pairs, where ``m_k``
    is the ratio of the second to the first xi-derivative of ``log r_k``:
    ``d^2 R / dxi_k^2 = (dR/dxi_k)^2 / R + m_k dR/dxi_k``.

    ``m_k`` is the constant ``alpha`` for power-exponential (1 for Matern
    1/2), and ``1 + e(u_k)`` for Matern 3/2 and 5/2, with
    ``e = 1 / (1 + u)`` and ``e = (2 - 1 / poly) / (1 + u)``, which stay
    finite for every ``u``; those are formed in the workspace's ``u`` and
    ``poly`` from the last build's pair stack at ``params``.
    """
    spec = ws.spec
    if not _polynomial(spec):
        return _power(spec) * float(x.sum())
    m = x.size
    u, poly = ws.u[:m], ws.poly[:m]
    np.multiply(ws.stack[k, :m], _weights(params.phi, spec)[k], out=u)
    with np.errstate(over="ignore"):
        if spec.shape == 2.5:
            # 2 - 1 / (1 + u (1 + u / 3))
            np.multiply(u, 1.0 / 3.0, out=poly)
            poly += 1.0
            poly *= u
            poly += 1.0
            np.reciprocal(poly, out=poly)
            np.subtract(2.0, poly, out=poly)
        u += 1.0
        np.reciprocal(u, out=u)
        if spec.shape == 2.5:
            u *= poly
    return float(x.sum()) + float(x @ u)
