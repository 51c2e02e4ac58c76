"""Test-only reference implementations.

The kernel oracles are the per-dimension closed forms, assembled as a
product of 1-d correlations entry by entry; the library instead sums the
exponents over a distance stack and takes one ``exp``.  ``dense_objective``
is the whole posterior objective computed the long way: the correlation
matrix is built twice (once for the likelihood, once with its derivatives
for the prior), ``R^{-1}`` is formed explicitly and the prior's trace terms
come from ``einsum``.
"""

import math

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from mfcokrig.kernels import POWER_EXPONENTIAL


def corr1d(h, phi, spec):
    """``r(h)`` for one dimension; elementwise over array ``h``."""
    if spec.family == POWER_EXPONENTIAL:
        return np.exp(-((h / phi) ** spec.shape))
    u = math.sqrt(2.0 * spec.shape) * (h / phi)
    if spec.shape == 0.5:
        return np.exp(-u)
    if spec.shape == 1.5:
        return (1.0 + u) * np.exp(-u)
    return (1.0 + u + u * u / 3.0) * np.exp(-u)


def dcorr_ratio(h, phi, spec):
    """``(dr/dphi) / r`` for one dimension; elementwise over array ``h``."""
    if spec.family == POWER_EXPONENTIAL:
        return spec.shape * h**spec.shape / phi ** (spec.shape + 1.0)
    u = math.sqrt(2.0 * spec.shape) * (h / phi)
    if spec.shape == 0.5:
        return h / (phi * phi)
    if spec.shape == 1.5:
        return u * u / (phi * (1.0 + u))
    return u * u * (1.0 + u) / (3.0 * phi * (1.0 + u + u * u / 3.0))


def cross_corr_loop(X1, X2, phi, spec):
    """Entry-by-entry product of 1-d correlations."""
    C = np.empty((X1.shape[0], X2.shape[0]))
    for i in range(X1.shape[0]):
        for j in range(X2.shape[0]):
            rho = 1.0
            for k in range(X1.shape[1]):
                rho *= corr1d(abs(X1[i, k] - X2[j, k]), phi[k], spec)
            C[i, j] = rho
    return C


def corr_matrix_loop(X, phi, spec):
    R = cross_corr_loop(X, X, phi, spec)
    np.fill_diagonal(R, 1.0 + spec.nugget)
    return R


def corr_matrix_with_derivs_loop(X, phi, spec):
    n, d = X.shape
    R = corr_matrix_loop(X, phi, spec)
    dR = np.zeros((d, n, n))
    for i in range(n):
        for j in range(n):
            # underflowed correlations contribute exactly zero derivative
            if i != j and R[i, j] != 0.0:
                for k in range(d):
                    h = abs(X[i, k] - X[j, k])
                    dR[k, i, j] = R[i, j] * dcorr_ratio(h, phi[k], spec)
    return R, dR


def _dense_corr(X, phi, spec, derivs):
    """Product-form correlation (and derivative stack) over whole slices."""
    n, d = X.shape
    H = np.abs(X[:, None, :] - X[None, :, :])
    R0 = np.ones((n, n))
    for k in range(d):
        R0 *= corr1d(H[:, :, k], phi[k], spec)
    R = R0.copy()
    np.fill_diagonal(R, 1.0 + spec.nugget)
    if not derivs:
        return R
    dR = np.empty((d, n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(d):
            g = R0 * dcorr_ratio(H[:, :, k], phi[k], spec)
            dR[k] = np.where(R0 == 0.0, 0.0, g)
    return R, dR


def _half_logdet(info):
    L = cholesky(0.5 * (info + info.T), lower=True)
    return float(np.sum(np.log(np.diag(L))))


def _trace_form(corner, W):
    d = W.shape[0]
    info = np.empty((d + 1, d + 1))
    info[0, 0] = corner
    info[0, 1:] = info[1:, 0] = np.einsum("kii->k", W)
    info[1:, 1:] = np.einsum("kab,jba->kj", W, W)
    return 0.5 * (info + info.T)


def dense_objective(lv, xi, spec, prior):
    """Posterior log density of ``xi`` at one level, computed the long way.

    The Jacobian is ``-sum(xi)`` for priors on ``phi`` and ``+sum(xi)`` for
    the jointly robust prior, a density on ``1/phi``.
    """
    phi = np.exp(-xi)
    n, q, X, y = lv.n, lv.q, lv.design, lv.outputs

    # likelihood: first build, Cholesky and triangular solves
    L = cholesky(_dense_corr(lv.inputs, phi, spec, False), lower=True)
    A = solve_triangular(L, X, lower=True)
    z = solve_triangular(L, y, lower=True)
    Lm = cholesky(A.T @ A, lower=True)
    b = cho_solve((Lm, True), A.T @ z)
    e = z - A @ b
    S2 = float(e @ e)
    logdet_R = 2.0 * float(np.sum(np.log(np.diag(L))))
    logdet_M = 2.0 * float(np.sum(np.log(np.diag(Lm))))
    a_t = prior.a_t(q)
    value = -0.5 * logdet_R - 0.5 * logdet_M - (0.5 * (n - q) + a_t - 1.0) * math.log(S2)

    if prior.kind == "flat":
        lp = 0.0
    elif prior.kind == "inverse_range":
        lp = -float(np.sum(np.log(phi)))
    elif prior.kind == "jointly_robust":
        d = lv.dims
        span = lv.inputs.max(axis=0) - lv.inputs.min(axis=0)
        total = float((n ** (-1.0 / d) * span) @ (1.0 / phi))
        lp = (0.5 - d) * math.log(total) - total
    else:
        # prior: second build, explicit inverse
        R, dR = _dense_corr(lv.inputs, phi, spec, True)
        Rinv = cho_solve((cholesky(R, lower=True), True), np.eye(n))
        B = Rinv @ X
        M = X.T @ B
        if prior.kind == "reference":
            Q = Rinv - B @ np.linalg.solve(M, B.T)
            lp = _half_logdet(_trace_form(n - q, dR @ (0.5 * (Q + Q.T))))
        else:
            lp = _half_logdet(_trace_form(n, dR @ Rinv))
            if prior.kind == "jeffreys2":
                lp += 0.5 * np.linalg.slogdet(M)[1]
    jacobian = float(np.sum(xi)) if prior.kind == "jointly_robust" else -float(np.sum(xi))
    return value + lp + jacobian
