"""Per-level Gaussian-process algebra.

One fidelity level contributes a design, outputs, a regression basis, and
(above the first level) the lower-level outputs at the shared inputs.  This
module factorizes the level's correlation matrix, solves the generalized
least squares problem, and evaluates the log-likelihood of the ranges
(``log_likelihood``) and its xi-gradient (``log_likelihood_xi_grad``):
the integrated one, the trend coefficients and the process variance
marginalized, or the plug-in criterion, one form with another exponent.

All solves go through Cholesky factors and triangular back-substitution.
The one explicit inverse is ``gls_projector``'s: LAPACK ``dpotri`` forms
``R^{-1}`` in place on the factor, and one ``dsyrk`` turns it into the GLS
projector.  It serves both consumers that read every entry of it, the
xi-gradient (``log_likelihood_xi_grad``) and the Fisher information of
the reference and Jeffreys priors (``priors``), with one call per
evaluation: under those priors the likelihood's gradient reads the
prior's projector less the outer product of its ``likelihood_columns``,
taken from the factor first.  ``gls_fit`` calls LAPACK
(``dpotrf``, ``dtrtrs``) directly, the routines ``scipy.linalg.cholesky``
and ``solve_triangular`` wrap, so its results are theirs bit for bit
without their per-call checks.  It factorizes the correlation matrix in
place, and given a ``kernels.Workspace`` it builds that matrix in the
workspace's buffer, so an objective evaluation of range estimation
allocates no ``n x n`` array.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf, dpotri, dtrtrs

from .exceptions import (
    DegenerateDataError,
    DesignRankError,
    InvalidArgumentError,
    SingularCorrelationError,
)
from .kernels import corr_matrix, xi_gradient

# S2 at or below this share of y^T R^-1 y is rounding noise: the outputs
# are interpolated exactly and log(S^2) is meaningless
MIN_S2_RATIO = 1e-24


def constant_basis(X):
    """Default regression basis: a single intercept column."""
    return np.ones((np.asarray(X).shape[0], 1))


@dataclass(frozen=True, eq=False)
class LevelData:
    """Design, outputs, and regression structure of one fidelity level.

    Parameters
    ----------
    index : int
        One-based fidelity level number.
    inputs : ndarray, shape (n, d)
        Design points.
    outputs : ndarray, shape (n,)
        Code output at the design points.
    basis : ndarray, shape (n, p)
        Regression basis evaluated at the design.
    lower_output : ndarray or None, shape (n,)
        Output of the next-lower level at these inputs; ``None`` at the
        first level.
    basis_fn : callable or None
        Evaluates the basis at new points, ``(m, d) -> (m, p)``; required
        for prediction, optional for fitting.
    """

    index: int
    inputs: np.ndarray
    outputs: np.ndarray
    basis: np.ndarray
    lower_output: np.ndarray = None
    basis_fn: object = None

    def __post_init__(self):
        inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        outputs = np.asarray(self.outputs, dtype=np.float64).ravel()
        basis = np.asarray(self.basis, dtype=np.float64)
        if inputs.ndim != 2:
            raise InvalidArgumentError("inputs must be a 2-d matrix")
        n = inputs.shape[0]
        if outputs.shape != (n,):
            raise InvalidArgumentError(
                f"outputs must have length {n}, got shape {outputs.shape}"
            )
        if basis.ndim != 2 or basis.shape[0] != n:
            raise InvalidArgumentError(f"basis must be an ({n}, p) matrix")
        for name, arr in (("inputs", inputs), ("outputs", outputs), ("basis", basis)):
            if not np.all(np.isfinite(arr)):
                raise InvalidArgumentError(f"{name} contain non-finite entries")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "basis", basis)
        if self.lower_output is not None:
            w = np.asarray(self.lower_output, dtype=np.float64).ravel()
            if w.shape != (n,):
                raise InvalidArgumentError(
                    f"lower_output must have length {n}, got shape {w.shape}"
                )
            if not np.all(np.isfinite(w)):
                raise InvalidArgumentError("lower_output contains non-finite entries")
            object.__setattr__(self, "lower_output", w)
        design = self.design
        if np.linalg.matrix_rank(design) < design.shape[1]:
            raise DesignRankError(
                f"level {self.index} regression design is rank deficient "
                f"({design.shape[1]} columns)"
            )

    @property
    def n(self):
        return self.inputs.shape[0]

    @property
    def dims(self):
        return self.inputs.shape[1]

    @property
    def p(self):
        return self.basis.shape[1]

    @property
    def q(self):
        """Number of mean parameters: basis columns, plus the scale link
        to the lower level when one exists."""
        return self.p + (0 if self.lower_output is None else 1)

    @cached_property
    def design(self):
        """Full regression matrix: the basis, extended by the lower-level
        output column above level one.  Built once; every evaluation of
        range estimation reads it."""
        if self.lower_output is None:
            return self.basis
        return np.column_stack([self.basis, self.lower_output])


def input_spans(data):
    """Per-column spans ``max - min`` of a level's inputs; a column whose
    span is 0 (constant) or overflows raises ``InvalidArgumentError``."""
    with np.errstate(over="ignore"):
        spans = np.ptp(data.inputs, axis=0)
    bad = np.flatnonzero((spans == 0.0) | (spans == math.inf))
    if bad.size:
        raise InvalidArgumentError(
            f"level {data.index} input column {bad[0]} spans {float(spans[bad[0]])}: "
            "a constant column, or one whose span overflows, gives its range no scale"
        )
    return spans


@dataclass(frozen=True, eq=False)
class LevelFactorization:
    """Cached Cholesky algebra of one level at fixed range parameters.

    ``chol_R`` is lower-triangular with ``R = L L^T``; ``white_design`` and
    ``white_resid`` are ``L^{-1} X`` and ``L^{-1}(y - X b_hat)``, so inner
    products against them realize ``R^{-1}`` quadratic forms.  ``ws`` is
    the ``kernels.Workspace`` that holds ``chol_R``, and, when it was built
    with derivative buffers (the Fisher-information priors), the stack
    ``ws.dR`` of ``dR/dphi_k`` at the same ranges; they are valid only
    until the next evaluation on it, and ``gls_projector`` (the
    xi-gradient, the Fisher information) overwrites ``chol_R`` with the
    projector.  A value-only factorization built without a workspace keeps
    none, so a model holds no evaluation buffers.
    """

    chol_R: np.ndarray
    white_design: np.ndarray
    white_outputs: np.ndarray
    chol_M: np.ndarray
    b_hat: np.ndarray
    white_resid: np.ndarray
    S2: float
    logdet_R: float
    logdet_M: float
    ws: object = None

    @property
    def n(self):
        return self.chol_R.shape[0]


def gls_fit(data, params, spec, ws=None):
    """Factorize one level at the given range parameters.

    Computes the generalized least squares coefficients
    ``b_hat = (X^T R^{-1} X)^{-1} X^T R^{-1} y``, the residual sum of
    squares ``S2 = (y - X b_hat)^T R^{-1} (y - X b_hat)``, and the log
    determinants of ``R`` and ``M = X^T R^{-1} X``.

    Parameters
    ----------
    ws : kernels.Workspace, optional
        Buffers built on ``data.inputs``, reused across many ranges; the
        result's ``chol_R`` lives in them until the next call.  A workspace
        with derivative buffers also receives the derivative stack ``dR``
        of the same kernel pass, for the Fisher-information priors.

    Raises
    ------
    SingularCorrelationError
        If ``R`` fails its Cholesky factorization.
    DesignRankError
        If ``M`` fails its Cholesky factorization.
    """
    R = corr_matrix(data.inputs, params, spec, ws=ws)
    # R is symmetric, so its transpose, a Fortran-order view, is R itself
    # for LAPACK, which factorizes it in place
    L, info = dpotrf(R.T, lower=1, overwrite_a=1)
    if info != 0:
        raise SingularCorrelationError(params.phi, level=data.index)
    # dtrtrs fails only on a zero diagonal, which a successful dpotrf
    # rules out, so its info is not checked
    X = data.design
    A = dtrtrs(L, X, lower=1)[0]
    z = dtrtrs(L, data.outputs, lower=1)[0]
    M = A.T @ A
    Lm, info = dpotrf(M, lower=1)
    if info != 0:
        raise DesignRankError(
            f"level {data.index} design is numerically collinear after whitening"
        )
    b = dtrtrs(Lm, dtrtrs(Lm, A.T @ z, lower=1)[0], lower=1, trans=1)[0]
    e = z - A @ b
    S2 = float(e @ e)
    logdet_R = 2.0 * float(np.log(L.diagonal()).sum())
    logdet_M = 2.0 * float(np.log(Lm.diagonal()).sum())
    return LevelFactorization(
        chol_R=L,
        white_design=A,
        white_outputs=z,
        chol_M=Lm,
        b_hat=b,
        white_resid=e,
        S2=S2,
        logdet_R=logdet_R,
        logdet_M=logdet_M,
        ws=ws,
    )


def log_S2(fact, data):
    """``log S2`` of a factorization; raises ``DegenerateDataError`` when the
    outputs are interpolated exactly (``S2`` vanishes relative to
    ``y^T R^{-1} y``) and every likelihood is undefined."""
    yy = float(fact.white_outputs @ fact.white_outputs)
    if not fact.S2 > MIN_S2_RATIO * yy:
        raise DegenerateDataError(
            f"level {data.index} outputs are interpolated exactly "
            f"(S2={fact.S2}, y^T R^-1 y={yy}); the likelihood is undefined"
        )
    return math.log(fact.S2)


def log_likelihood(data, fact, exponent, projected=True):
    """Log-likelihood of the range parameters at one level, from a
    factorization at them:

        -1/2 log|R| - 1/2 log|X^T R^{-1} X| - exponent log S2

    (``projected``), or ``-1/2 log|R| - exponent log S2``.  With the
    exponent ``log_S2_exponent(data, a_t)`` the first is the integrated
    likelihood, the trend coefficients and the process variance integrated
    out under a ``(sigma^2)^{-a_t}`` prior; with ``(n-q)/2`` and not
    ``projected`` the second is the plug-in criterion.
    ``log_likelihood_xi_grad`` is its gradient.
    """
    value = -0.5 * fact.logdet_R
    if projected:
        value -= 0.5 * fact.logdet_M
    return value - exponent * log_S2(fact, data)


def log_S2_exponent(data, a_t):
    """The exponent ``(n-q)/2 + a_t - 1`` on ``log S2`` in the integrated
    log-likelihood; raises unless ``n - q >= 1`` and it is positive."""
    n, q = data.n, data.q
    if n - q < 1:
        raise InvalidArgumentError(
            f"need n - q >= 1 degrees of freedom, got n={n}, q={q}"
        )
    exponent = 0.5 * (n - q) + a_t - 1.0
    if exponent <= 0.0:
        raise InvalidArgumentError(
            f"(n-q)/2 + a_t - 1 must be positive, got {exponent} (a_t={a_t})"
        )
    return exponent


def projector_columns(fact, projected=True, resid_scale=0.0):
    """The columns ``V = [s u, B]`` (``projected``) or ``V = [s u]`` whose
    outer product ``gls_projector`` takes off ``R^{-1}``: ``u = L^-T e =
    R^{-1}(y - X b_hat)``, ``s`` the ``resid_scale`` and
    ``B = L^-T A Lm^-T``, as an ``n x (q+1)`` or ``n x 1`` Fortran-order
    array.  They are read from the factor, so a caller that needs them
    after the factor is consumed takes them first.  With ``s`` 0 the first
    column is zeros and ``u`` is not solved for; the column stays, as
    ``dsyrk`` over ``q + 1`` columns rounds apart from one over ``q``."""
    L = fact.chol_R
    q = fact.chol_M.shape[0] if projected else 0
    V = np.empty((fact.n, q + 1), order="F")
    if resid_scale == 0.0:
        V[:, 0] = 0.0
    else:
        V[:, 0] = dtrtrs(L, fact.white_resid, lower=1, trans=1)[0]
        V[:, 0] *= resid_scale
    if projected:
        AM = dtrtrs(fact.chol_M, fact.white_design.T, lower=1)[0]
        V[:, 1:] = dtrtrs(L, AM.T, lower=1, trans=1)[0]
    return V


def gls_projector(data, params, fact, projected=True, columns=None):
    """The GLS projector ``Q = R^{-1} - B B^T``, ``B = L^-T A Lm^-T``
    (``projected``), or ``R^{-1}``, in the lower triangle of an ``n x n``
    Fortran-order array; given ``columns``, ``R^{-1} - V V^T`` with ``V``
    those columns (``likelihood_columns`` of ``fact``) instead.

    LAPACK ``dpotri`` forms ``R^{-1}`` in place on the factor and one
    ``dsyrk`` subtracts the rank-(q+1) term ``V V^T``, by default that of
    ``projector_columns``, so the result is ``fact.chol_R`` itself and the
    factorization is consumed.  The upper triangle holds none of it.
    """
    V = projector_columns(fact, projected) if columns is None else columns
    Rinv, info = dpotri(fact.chol_R, lower=1, overwrite_c=1)
    if info != 0:
        raise SingularCorrelationError(params.phi, level=data.index)
    return dsyrk(-1.0, V, beta=1.0, c=Rinv, lower=1, overwrite_c=1)


def likelihood_columns(fact, exponent, projected=True):
    """``projector_columns`` with the residual scale ``sqrt(2 c / S2)`` of
    the likelihood's gradient, ``c`` the ``exponent`` on ``log S2``."""
    return projector_columns(fact, projected, math.sqrt(2.0 * exponent / fact.S2))


def log_likelihood_xi_grad(data, params, fact, exponent, out, projected=True, columns=None):
    """Gradient in ``xi = -log(phi)`` of
    ``-1/2 log|R| - 1/2 log|X^T R^{-1} X| - exponent log S2`` (``projected``)
    or of ``-1/2 log|R| - exponent log S2``, into ``out``.

    With ``u = R^{-1}(y - X b_hat)`` and ``c`` the exponent, the ``phi_k``
    derivative is ``sum_{i<j} dR_k[i, j] (-G[i, j] + (2c / S2) u_i u_j)``,
    with ``G`` the GLS projector ``Q`` when ``projected`` and ``R^{-1}``
    otherwise: the negation of the lower triangle that ``gls_projector``
    forms with the ``likelihood_columns`` of ``fact``.  Its pairs, times
    the pair correlations, are gathered into the workspace's ``gpairs`` for
    ``kernels.xi_gradient``.  ``fact`` is a factorization at ``params`` in
    a ``kernels.Workspace`` built with ``grad`` or ``derivs``, whose build
    the gradient reads and whose ``chol_R`` it consumes; any other raises
    ``InvalidArgumentError``.

    ``columns``, when given, are the ``likelihood_columns`` of ``fact``,
    taken before a Fisher-information prior replaced its factor with that
    prior's projector ``P`` (``Q`` or ``R^{-1}``, both triangles); the
    triangle is then ``P - V V^T``, one ``dsyrk`` in place on ``P``, and
    ``projected`` is not read.
    """
    ws = fact.ws
    if ws is None or ws.gpairs is None:
        raise InvalidArgumentError("the xi-gradient needs a workspace with gradient buffers")
    if columns is None:
        H = gls_projector(
            data, params, fact, projected, likelihood_columns(fact, exponent, projected)
        )
    else:
        H = dsyrk(-1.0, columns, beta=1.0, c=fact.chol_R, lower=1, overwrite_c=1)
    # the lower triangle of the Fortran-order H holds the pair (i, j),
    # i < j, at the flat position i n + j of its C-order transpose
    m = ws.upper.size
    g = ws.gpairs[:m]
    np.take(H.T.reshape(-1), ws.upper, out=g, mode="clip")
    g *= ws.pairs[:m]
    return np.negative(xi_gradient(ws, params, out), out=out)
