"""Objective and robust prior densities for the range parameters.

All evaluators return log densities up to additive constants, per fidelity
level, in phi-space, except ``jointly_robust``, which is a density on the
inverse ranges ``B = 1/phi``.  The reparameterization Jacobian used by the
optimizer lives in the estimation module, not here.

The reference and Jeffreys priors read the Cholesky factor and the
derivative stack of a ``gp.gls_fit`` factorization in a
``kernels.Workspace`` with derivative buffers, whose build fills that
stack; pass the one the likelihood already uses as ``fact`` so that an
evaluation builds and factorizes the correlation matrix once.  The
inverse or the GLS projector comes from ``gp.gls_projector``, in place on
the factor, the trace operands are written into the workspace's buffers,
and LAPACK ``dpotrf`` is called directly, so an evaluation allocates no
``n x n`` array.  ``log_prior`` also gives the xi-gradient of every kind; for these
three it is read from the same projector and trace operands, at about
``2d + 1`` gemms of ``n x n`` on top of the information's ``d``.

Supported kinds:

* ``reference``: independent reference prior, ``|I_R(phi)|^{1/2}`` built
  from the profile Fisher information with the trend projected out;
* ``jeffreys1`` / ``jeffreys2``: independent Jeffreys priors; the second
  multiplies in ``|X^T R^{-1} X|^{1/2}`` and pairs with a variance-prior
  exponent of ``1 + q/2``;
* ``jointly_robust``: proper prior on inverse ranges with polynomial and
  exponential penalties;
* ``flat`` and ``inverse_range``: improper diagnostics.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

from .exceptions import InvalidArgumentError, PriorEvaluationError, is_real, real_array
from .gp import gls_fit, gls_projector, input_spans
from .kernels import Workspace, curvature_dot, xi_gradient

# bound here as well for tools that wrap the kernel layer under this module
# (perfbench/tracing.py); the build itself happens inside ``gls_fit``
from .kernels import corr_matrix_with_derivs  # noqa: F401

REFERENCE = "reference"
JEFFREYS1 = "jeffreys1"
JEFFREYS2 = "jeffreys2"
JOINTLY_ROBUST = "jointly_robust"
FLAT = "flat"
INVERSE_RANGE = "inverse_range"
PRIOR_KINDS = (REFERENCE, JEFFREYS1, JEFFREYS2, JOINTLY_ROBUST, FLAT, INVERSE_RANGE)
# kinds built from the Fisher information, which needs the derivative stack
FISHER_KINDS = (REFERENCE, JEFFREYS1, JEFFREYS2)


@dataclass(frozen=True)
class PriorSpec:
    """Prior selection plus the hyperparameters of the jointly robust kind.

    Parameters
    ----------
    kind : str
        One of ``PRIOR_KINDS``.
    jr_a0 : float, optional
        Polynomial-penalty exponent; must exceed ``-(d+1)``.  Defaults to
        ``0.5 - d`` when left unset.
    jr_b0 : float
        Exponential-penalty rate, ``> 0``; required by ``jointly_robust``.
    jr_C : array_like, optional
        Per-dimension scale constants.  Defaults to
        ``n^{-1/d} |max(x_k) - min(x_k)|`` of the level being evaluated.

    One function, ``_log_jr_prior``, sets both defaults at evaluation
    time, from the level it is given.
    """

    kind: str
    jr_a0: float = None
    jr_b0: float = 1.0
    jr_C: object = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in PRIOR_KINDS:
            raise InvalidArgumentError(
                f"unknown prior kind {self.kind!r}; expected one of {PRIOR_KINDS}"
            )
        # only the jointly robust kind reads jr_b0, so only it needs one
        b0 = self.jr_b0
        if b0 is not None or self.kind == JOINTLY_ROBUST:
            if not (is_real(b0) and 0.0 < b0 < math.inf):
                raise InvalidArgumentError(
                    f"jr_b0 must be a finite number > 0, got {b0!r}"
                )
        a0 = self.jr_a0
        if a0 is not None and not (is_real(a0) and math.isfinite(a0)):
            raise InvalidArgumentError(f"jr_a0 must be a finite number, got {a0!r}")
        if self.jr_C is not None:
            C = real_array(self.jr_C, "jr_C").ravel()
            if not np.all(np.isfinite(C)) or np.any(C <= 0.0):
                raise InvalidArgumentError("jr_C entries must be finite and > 0")
            object.__setattr__(self, "jr_C", C)

    def a_t(self, q_t):
        """Variance-prior exponent paired with this kind."""
        if self.kind == JEFFREYS2:
            return 1.0 + 0.5 * q_t
        return 1.0


def _with_derivs(data, params, spec, fact):
    """``fact`` when its workspace holds the derivative stack, else a fresh
    factorization in a fresh derivative workspace."""
    if fact is None or fact.ws is None or fact.ws.dR is None:
        fact = gls_fit(data, params, spec, Workspace(data.inputs, spec, derivs=True))
    return fact


def fisher_info(data, params, spec, projected, fact=None):
    """Fisher information of (variance, ranges) at one level: the trend
    projected out (``projected``, the reference prior's) or held fixed
    (the Jeffreys priors').

    The matrix is [corner, tr(W_k); tr(W_k), tr(W_k W_j)], symmetrized,
    with trace operands ``W_k = dR_k P``: projected, ``P = Q``, the GLS
    projector ``R^{-1} - R^{-1} X M^{-1} X^T R^{-1}``, and corner
    ``n - q``; otherwise ``P = R^{-1}`` and corner ``n``.  ``fact`` is an
    optional ``gls_fit`` factorization at ``params`` in a workspace with
    derivative buffers; like the xi-gradient, this consumes its
    ``chol_R``.

    ``gp.gls_projector`` forms the lower triangle of ``P`` in place on the
    factor, and one take and one put over the workspace's pair positions
    ``upper`` and ``lower`` fill the other triangle.  ``W`` and its slice
    transposes ``WT`` are buffers of that workspace.  The products stay d
    per-slice gemms: as one ``(d n, n)`` gemm they cost over ten times as
    much at two OpenBLAS threads, and d per-slice ``dsymm`` calls on the
    one triangle took 1.6 and 2x as long as the fill and the gemms at n=80
    and n=30 (d=8, 1 OpenBLAS thread).
    """
    fact = _with_derivs(data, params, spec, fact)
    ws = fact.ws
    dR, W, WT = ws.dR, ws.W, ws.WT
    # P's lower triangle is the upper one of its C-order transpose, which
    # is mirrored through WT, free until the slice transposes
    P = gls_projector(data, params, fact, projected).T
    flat = P.reshape(-1)
    pairs = WT.reshape(-1)[: ws.upper.size]
    np.take(flat, ws.upper, out=pairs, mode="clip")
    np.put(flat, ws.lower, pairs, mode="clip")
    np.matmul(dR, P, out=W)
    d = W.shape[0]
    info = np.empty((d + 1, d + 1))
    info[0, 0] = data.n - data.q if projected else data.n
    info[0, 1:] = W.diagonal(axis1=1, axis2=2).sum(axis=1)
    info[1:, 0] = info[0, 1:]
    # tr(W_k W_j) = sum_ab W_k[a, b] W_j[b, a]
    np.copyto(WT, W.transpose(0, 2, 1))
    info[1:, 1:] = W.reshape(d, -1) @ WT.reshape(d, -1).T
    return 0.5 * (info + info.T)


def _half_logdet_xi_grad(fact, params, inv, out):
    """Gradient in ``xi = -log(phi)`` of ``1/2 log det I``, from the
    operands ``fisher_info`` left in the workspace of ``fact``: the
    projector ``P`` (``Q`` or ``R^{-1}``, both triangles) in its
    ``chol_R``, ``W_k = dR_k P`` and the lower triangle ``inv`` of
    ``I^-1``.

    With ``D_k = dR/dxi_k``, ``V_k = (I^-1)_0k Id + sum_l (I^-1)_kl W_l``
    and ``dW_k/dxi_j = D_kj P - D_k P D_j P``, the derivative is
    ``sum_k tr(dW_k/dxi_j V_k)``.  The kernel is a product, so
    ``D_kj = D_k D_j / R`` for ``k != j`` and ``D_jj = D_j^2 / R + m_j D_j``
    (``kernels.curvature_dot``); with the symmetric ``X_k = P V_k``,
    ``S = sum_k D_k X_k`` (elementwise) and ``Z = sum_k X_k D_k P``, it is
    ``<D_j, S / R - Z> + <m_j D_j, X_j>``.  Both inner products are sums
    over the pairs, the first one gemv of the derivative rows
    (``kernels.xi_gradient``) against ``2 (S - R Z)``.

    The code reads the phi-derivatives ``dR_k`` of the workspace and ``I``
    taken in phi, as ``fisher_info`` builds it.  With
    ``D_k = -phi_k dR_k``, ``X_k`` in xi is ``-X_k / phi_k`` in phi, so
    ``D_k X_k``, ``S`` and ``Z`` are the same in both; and since
    ``1/2 log det I`` in xi is that in phi less ``sum(xi)``, 1 is added
    to each coordinate of its gradient.

    ``X_k`` and ``Z`` are symmetric, but their gemms round the two
    triangles apart, and where ``R`` is ill-conditioned that difference
    is as large as the gradient (2.7e-4 against a central difference at a
    Matern 5/2 optimum with cond(R) 2e9, and 3e-6 with both triangles), so
    every sum over the pairs adds both triangles.

    ``V_k`` goes into ``WT``, free once the traces are formed, ``X_k`` into
    the workspace's ``scratch`` matrix and the pair sums into its
    ``pair_scratch`` rows and ``gpairs``; the products stay d per-slice
    gemms, as ``fisher_info``'s do.
    """
    ws = fact.ws
    dR, W, WT = ws.dR, ws.W, ws.WT
    d, n = W.shape[:2]
    m = ws.upper.size
    P = fact.chol_R.T
    X = ws.scratch
    flat = X.reshape(-1)
    x, other, S = ws.gpairs[:m], ws.pair_scratch[0, :m], ws.pair_scratch[1, :m]

    def pair_sums():
        """``x[p] = X[i, j] + X[j, i]`` over the pairs ``p = (i, j)``."""
        np.take(flat, ws.upper, out=x, mode="clip")
        np.take(flat, ws.lower, out=other, mode="clip")
        np.add(x, other, out=x)

    inv = np.tril(inv) + np.tril(inv, -1).T
    np.matmul(inv[1:, 1:], W.reshape(d, -1), out=WT.reshape(d, -1))
    WT.reshape(d, -1)[:, :: n + 1] += inv[1:, :1]
    curvature = np.empty(d)
    for k in range(d):
        np.matmul(P, WT[k], out=X)
        np.matmul(X, W[k], out=WT[k])
        X *= dR[k]
        pair_sums()
        curvature[k] = curvature_dot(ws, params, k, x)
        if k == 0:
            np.copyto(S, x)
        else:
            S += x
    WT.sum(axis=0, out=X)
    pair_sums()
    x *= ws.pairs[:m]
    x -= S
    np.negative(x, out=x)
    xi_gradient(ws, params, out)
    out += curvature
    out += 1.0
    return out


def _log_jr_prior(data, params, prior, grad):
    """Log jointly robust prior on the inverse ranges ``B_k = 1/phi_k``:

        a0 * log(sum C_k B_k) - b0 * sum(C_k B_k),

    up to the normalizing constant, with ``b0 = prior.jr_b0``.  This sets
    the defaults of the hyperparameters the PriorSpec leaves unset:
    ``a0 = 0.5 - d`` and ``C_k = n^{-1/d} |max(x_k) - min(x_k)|`` over the
    design of the level ``data``.  ``grad``, when given, receives the
    gradient in ``xi = -log(phi)``, ``(a0 / sum(C/phi) - b0) C_k / phi_k``.
    """
    d = params.dims
    C = prior.jr_C
    if C is None:
        C = float(data.n) ** (-1.0 / d) * input_spans(data)
    if C.size != d:
        raise InvalidArgumentError(
            f"jr_C has {C.size} entries but there are {d} range parameters"
        )
    a0 = 0.5 - d if prior.jr_a0 is None else prior.jr_a0
    if not a0 > -(d + 1):
        raise InvalidArgumentError(f"jr_a0 must exceed -(d+1) = {-(d + 1)}, got {a0}")
    b0 = prior.jr_b0
    total = float(C @ (1.0 / params.phi))
    if not math.isfinite(total) or total <= 0.0:
        raise PriorEvaluationError(
            "jointly robust penalty sum is not finite and positive", phi=params.phi
        )
    if grad is not None:
        grad[:] = (a0 / total - b0) * (C / params.phi)
    return a0 * math.log(total) - b0 * total


def log_prior(data, params, spec, prior, fact=None, grad=None):
    """Per-level log prior density of the configured kind.

    ``reference`` is ``1/2 log det I_R``; ``jeffreys1`` is
    ``1/2 log det I_J``, and ``jeffreys2`` adds ``1/2 log|X^T R^{-1} X|``.
    ``fact`` is an optional ``gls_fit`` factorization at ``params``, reused
    by the kinds in ``FISHER_KINDS`` when its workspace holds derivative
    buffers; they consume its ``chol_R``: read the likelihood from it first.

    ``grad``, an optional float array of shape ``(d,)``, receives the
    gradient of the value in ``xi = -log(phi)``: 0 for ``flat``, 1 in
    every coordinate for ``inverse_range``, that of ``_log_jr_prior`` for
    ``jointly_robust``, and for the kinds in ``FISHER_KINDS`` that of
    ``1/2 log det I`` (``_half_logdet_xi_grad``).  ``jeffreys2``'s
    ``1/2 log|X^T R^{-1} X|`` is left out of it: it cancels the
    likelihood's, and the caller takes the two together, from the factor
    before this consumes it.
    """
    if prior.kind in FISHER_KINDS:
        fact = _with_derivs(data, params, spec, fact)
        reference = prior.kind == REFERENCE
        info = fisher_info(data, params, spec, reference, fact)
        L, status = dpotrf(info, lower=1)
        # the gradient reads I^-1, which overflows where every correlation
        # nearly underflows though I still factors; the value is refused
        # there too, so both paths agree on which ranges are feasible
        if status == 0:
            inv = dpotri(L, lower=1)[0]
        if status != 0 or not np.isfinite(inv).all():
            what = "reference-prior" if reference else "Jeffreys-prior"
            raise PriorEvaluationError(
                f"{what} information matrix is not positive definite or its "
                "inverse overflows", phi=params.phi
            )
        # half the log determinant is the sum of the logs of L's diagonal
        value = float(np.log(L.diagonal()).sum())
        if prior.kind == JEFFREYS2:
            value += 0.5 * fact.logdet_M
        if grad is not None:
            _half_logdet_xi_grad(fact, params, inv, grad)
        return value
    if prior.kind == FLAT:
        value = 0.0
        if grad is not None:
            grad.fill(0.0)
    elif prior.kind == INVERSE_RANGE:
        value = -float(np.sum(np.log(params.phi)))
        if grad is not None:
            grad.fill(1.0)
    else:
        value = _log_jr_prior(data, params, prior, grad)
    return value
