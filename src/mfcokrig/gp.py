"""Per-level Gaussian-process algebra.

One fidelity level contributes a design, outputs, a regression basis, and
(above the first level) the lower-level outputs at the shared inputs.  This
module factorizes the level's correlation matrix, solves the generalized
least squares problem, and evaluates the integrated log-likelihood obtained
by marginalizing the trend coefficients and the process variance.

All solves go through Cholesky factors and triangular back-substitution;
no matrix is ever inverted explicitly.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky as _cholesky
from scipy.linalg import solve_triangular

from .exceptions import (
    DegenerateDataError,
    DesignRankError,
    InvalidArgumentError,
    SingularCorrelationError,
)
from .kernels import RangeParams, corr_matrix, corr_matrix_with_derivs

# below this, log(S^2) is meaningless: the outputs are interpolated exactly
MIN_S2 = 1e-300


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

    @property
    def design(self):
        """Full regression matrix: the basis, extended by the lower-level
        output column above level one."""
        if self.lower_output is None:
            return self.basis
        return np.column_stack([self.basis, self.lower_output])


@dataclass(frozen=True, eq=False)
class LevelFactorization:
    """Cached Cholesky algebra of one level at fixed range parameters.

    ``chol_R`` is lower-triangular with ``R = L L^T``; ``white_design`` and
    ``white_resid`` are ``L^{-1} X`` and ``L^{-1}(y - X b_hat)``, so inner
    products against them realize ``R^{-1}`` quadratic forms.  ``dR`` is the
    stack of ``dR/dphi_k`` at the same ranges when the factorization was
    built for a Fisher-information prior, else ``None``.
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
    dR: np.ndarray = None

    @property
    def n(self):
        return self.chol_R.shape[0]

    @property
    def q(self):
        return self.white_design.shape[1]


def gls_fit(data, params, spec, stack=None, derivs=False):
    """Factorize one level at the given range parameters.

    Computes the generalized least squares coefficients
    ``b_hat = (X^T R^{-1} X)^{-1} X^T R^{-1} y``, the residual sum of
    squares ``S2 = (y - X b_hat)^T R^{-1} (y - X b_hat)``, and the log
    determinants of ``R`` and ``M = X^T R^{-1} X``.

    Parameters
    ----------
    stack : ndarray, optional
        ``distance_stack(data.inputs, spec)``, reused across many ranges.
    derivs : bool
        Also build the derivative stack ``dR`` (from the same kernel pass)
        for the Fisher-information priors.

    Raises
    ------
    SingularCorrelationError
        If ``R`` fails its Cholesky factorization.
    DesignRankError
        If ``M`` fails its Cholesky factorization.
    """
    if derivs:
        R, dR = corr_matrix_with_derivs(data.inputs, params, spec, stack=stack)
    else:
        R, dR = corr_matrix(data.inputs, params, spec, stack=stack), None
    try:
        L = _cholesky(R, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularCorrelationError(params.phi, level=data.index) from exc
    X = data.design
    A = solve_triangular(L, X, lower=True, check_finite=False)
    z = solve_triangular(L, data.outputs, lower=True, check_finite=False)
    M = A.T @ A
    try:
        Lm = _cholesky(M, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise DesignRankError(
            f"level {data.index} design is numerically collinear after whitening"
        ) from exc
    rhs = A.T @ z
    b = solve_triangular(
        Lm.T,
        solve_triangular(Lm, rhs, lower=True, check_finite=False),
        lower=False,
        check_finite=False,
    )
    e = z - A @ b
    S2 = float(e @ e)
    logdet_R = 2.0 * float(np.sum(np.log(np.diag(L))))
    logdet_M = 2.0 * float(np.sum(np.log(np.diag(Lm))))
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
        dR=dR,
    )


def log_S2(fact, data):
    """``log S2`` of a factorization; raises ``DegenerateDataError`` when the
    outputs are interpolated exactly and every likelihood is undefined."""
    if fact.S2 < MIN_S2:
        raise DegenerateDataError(
            f"level {data.index} outputs are interpolated exactly (S2={fact.S2}); "
            "the likelihood is undefined"
        )
    return math.log(fact.S2)


def integrated_log_likelihood(data, params, spec, a_t, fact=None):
    """Marginal log-likelihood of the range parameters at one level.

    The trend coefficients and the process variance are integrated out
    under a ``(sigma^2)^{-a_t}`` prior, leaving (up to a constant)

        -1/2 log|R| - 1/2 log|X^T R^{-1} X| - ((n-q)/2 + a_t - 1) log S2.

    Parameters
    ----------
    a_t : float
        Variance-prior exponent; must satisfy ``(n-q)/2 + a_t - 1 > 0``.
    fact : LevelFactorization, optional
        Reuse an existing factorization at ``params`` instead of refitting.
    """
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
    if fact is None:
        fact = gls_fit(data, params, spec)
    return -0.5 * fact.logdet_R - 0.5 * fact.logdet_M - exponent * log_S2(fact, data)


def tail_probe(data, spec, a_t, phi_grid):
    """Integrated log-likelihood along an isotropic range ray.

    Evaluates ``integrated_log_likelihood`` at ``phi = (g, ..., g)`` for
    each grid value ``g``; grid points where the correlation matrix is
    singular or the data degenerate yield ``nan`` rather than aborting the
    sweep.  Used to diagnose non-decaying likelihood tails.
    """
    grid = np.asarray(phi_grid, dtype=np.float64).ravel()
    if grid.size == 0:
        return np.empty(0)
    if not np.all(np.isfinite(grid)) or np.any(grid <= 0.0):
        raise InvalidArgumentError("phi grid must be finite and positive")
    out = np.empty(grid.size)
    for i, g in enumerate(grid):
        params = RangeParams(np.full(data.dims, g))
        try:
            out[i] = integrated_log_likelihood(data, params, spec, a_t)
        except (SingularCorrelationError, DegenerateDataError):
            out[i] = np.nan
    return out


def location_scale_estimates(fact, data):
    """Point estimates of the trend coefficients and process variance.

    The variance estimate is the marginal posterior mode
    ``S2 / (n - q + 2)``.
    """
    return fact.b_hat.copy(), fact.S2 / (data.n - data.q + 2.0)
