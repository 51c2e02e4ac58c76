"""Objective and robust prior densities for the range parameters.

All evaluators return log densities up to additive constants, per fidelity
level, in phi-space, except ``jointly_robust``, which is a density on the
inverse ranges ``B = 1/phi``.  The reparameterization Jacobian used by the
optimizer lives in the estimation module, not here.

The reference and Jeffreys priors read the Cholesky factor and the
derivative stack of a ``gp.gls_fit(..., derivs=True)`` factorization; pass
the one the likelihood already uses as ``fact`` so that an evaluation
builds and factorizes the correlation matrix once.

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
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky as _cholesky

from .exceptions import InvalidArgumentError, PriorEvaluationError
from .gp import gls_fit

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
        ``0.5 - d`` at evaluation time when left unset.
    jr_b0 : float
        Exponential-penalty rate, ``> 0``; required by ``jointly_robust``.
    jr_C : array_like, optional
        Per-dimension scale constants.  Defaults to
        ``n^{-1/d} |max(x_k) - min(x_k)|`` of the level being evaluated.
    """

    kind: str
    jr_a0: float = None
    jr_b0: float = 1.0
    jr_C: object = None

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise InvalidArgumentError(
                f"unknown prior kind {self.kind!r}; expected one of {PRIOR_KINDS}"
            )
        # only the jointly robust kind reads jr_b0, so only it needs one
        b0 = self.jr_b0
        if b0 is not None or self.kind == JOINTLY_ROBUST:
            is_real = isinstance(b0, numbers.Real) and not isinstance(b0, bool)
            if not (is_real and 0.0 < b0 < math.inf):
                raise InvalidArgumentError(
                    f"jr_b0 must be a finite number > 0, got {b0!r}"
                )
        if self.jr_C is not None:
            C = np.asarray(self.jr_C, dtype=np.float64).ravel()
            if not np.all(np.isfinite(C)) or np.any(C <= 0.0):
                raise InvalidArgumentError("jr_C entries must be finite and > 0")
            object.__setattr__(self, "jr_C", C)

    def a_t(self, q_t):
        """Variance-prior exponent paired with this kind."""
        if self.kind == JEFFREYS2:
            return 1.0 + 0.5 * q_t
        return 1.0

    def to_dict(self):
        return {
            "kind": self.kind,
            "jr_a0": self.jr_a0,
            "jr_b0": self.jr_b0,
            "jr_C": None if self.jr_C is None else list(map(float, self.jr_C)),
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            kind=payload["kind"],
            jr_a0=payload.get("jr_a0"),
            jr_b0=payload.get("jr_b0", 1.0),
            jr_C=payload.get("jr_C"),
        )


def _with_derivs(data, params, spec, fact):
    """``fact`` when it carries the derivative stack, else a fresh
    factorization that does."""
    if fact is None or fact.dR is None:
        fact = gls_fit(data, params, spec, derivs=True)
    return fact


def _trace_operands(data, fact, projected):
    """Stack of ``dR_k P`` with ``P = Q``, the GLS projector
    ``R^{-1} - R^{-1} X M^{-1} X^T R^{-1}`` (``projected``), or ``P = R^{-1}``."""
    n = fact.n
    P = cho_solve((fact.chol_R, True), np.eye(n), check_finite=False)
    if projected:
        B = P @ data.design
        P = P - B @ cho_solve((fact.chol_M, True), B.T, check_finite=False)
        P = 0.5 * (P + P.T)
    return fact.dR @ P


def _trace_form_matrix(corner, W):
    """Fisher-style matrix: given the (1,1) entry and the stack of trace
    operands, fill [corner, tr(W_k); tr(W_k), tr(W_k W_j)] and symmetrize."""
    d = W.shape[0]
    info = np.empty((d + 1, d + 1))
    info[0, 0] = corner
    info[0, 1:] = W.diagonal(axis1=1, axis2=2).sum(axis=1)
    info[1:, 0] = info[0, 1:]
    # tr(W_k W_j) = sum_ab W_k[a, b] W_j[b, a]
    info[1:, 1:] = W.reshape(d, -1) @ W.transpose(0, 2, 1).reshape(d, -1).T
    return 0.5 * (info + info.T)


def fisher_info_reference(data, params, spec, fact=None):
    """Profile Fisher information of (variance, ranges) at one level.

    The trend is projected out: with ``Q`` the GLS projector and
    ``W_k = dR_k Q``, the matrix has corner ``n - q``, first row/column
    ``tr(W_k)``, and body ``tr(W_k W_j)``.  ``fact`` is an optional
    ``gls_fit(..., derivs=True)`` factorization at ``params``.
    """
    fact = _with_derivs(data, params, spec, fact)
    return _trace_form_matrix(data.n - data.q, _trace_operands(data, fact, True))


def fisher_info_jeffreys(data, params, spec, fact=None):
    """Fisher information of (variance, ranges) with the trend held fixed:
    corner ``n``, operands ``U_k = dR_k R^{-1}``."""
    fact = _with_derivs(data, params, spec, fact)
    return _trace_form_matrix(data.n, _trace_operands(data, fact, False))


def _half_logdet_psd(info, params, what):
    sym = 0.5 * (info + info.T)
    try:
        L = _cholesky(sym, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise PriorEvaluationError(
            f"{what} information matrix is not positive definite", phi=params.phi
        ) from exc
    return float(np.sum(np.log(np.diag(L))))


def log_reference_prior(data, params, spec, fact=None):
    """Log reference prior at one level: ``1/2 log det I_R``."""
    info = fisher_info_reference(data, params, spec, fact)
    return _half_logdet_psd(info, params, "reference-prior")


def log_jeffreys_prior(data, params, spec, variant="j1", fact=None):
    """Log Jeffreys prior at one level.

    ``variant="j1"`` gives ``1/2 log det I_J``; ``variant="j2"`` adds
    ``1/2 log|X^T R^{-1} X|`` and must be paired with the matching
    variance-prior exponent ``1 + q/2``.
    """
    if variant not in ("j1", "j2"):
        raise InvalidArgumentError(f"variant must be 'j1' or 'j2', got {variant!r}")
    fact = _with_derivs(data, params, spec, fact)
    info = fisher_info_jeffreys(data, params, spec, fact)
    value = _half_logdet_psd(info, params, "Jeffreys-prior")
    if variant == "j2":
        value += 0.5 * fact.logdet_M
    return value


def jr_defaults(n_obs, input_ranges):
    """Default jointly robust hyperparameters for a level with ``n_obs``
    runs and per-dimension input ranges: ``a0 = 0.5 - d``, ``b0 = 1``,
    ``C_k = n^{-1/d} |range_k|``."""
    ranges = np.asarray(input_ranges, dtype=np.float64).ravel()
    d = ranges.size
    if np.any(ranges <= 0.0):
        raise InvalidArgumentError(
            "jointly robust defaults need strictly positive input ranges; "
            "a dimension of the design is constant"
        )
    C = float(n_obs) ** (-1.0 / d) * ranges
    return 0.5 - d, 1.0, C


def log_jr_prior(params, prior, n_obs=None, input_ranges=None):
    """Log jointly robust prior on the inverse ranges ``B_k = 1/phi_k``:

        a0 * log(sum C_k B_k) - b0 * sum(C_k B_k),

    up to the normalizing constant.  Hyperparameters left unset on the
    PriorSpec are filled from ``n_obs`` and ``input_ranges``.
    """
    d = params.dims
    if prior.jr_C is not None:
        C = prior.jr_C
        a0_default = 0.5 - d
    else:
        if n_obs is None or input_ranges is None:
            raise InvalidArgumentError(
                "jr_C is unset; provide n_obs and input_ranges for the defaults"
            )
        a0_default, _, C = jr_defaults(n_obs, input_ranges)
    if C.size != d:
        raise InvalidArgumentError(
            f"jr_C has {C.size} entries but there are {d} range parameters"
        )
    a0 = prior.jr_a0 if prior.jr_a0 is not None else a0_default
    if not a0 > -(d + 1):
        raise InvalidArgumentError(f"jr_a0 must exceed -(d+1) = {-(d + 1)}, got {a0}")
    b0 = prior.jr_b0
    total = float(C @ (1.0 / params.phi))
    if not math.isfinite(total) or total <= 0.0:
        raise PriorEvaluationError(
            "jointly robust penalty sum is not finite and positive", phi=params.phi
        )
    return a0 * math.log(total) - b0 * total


def log_prior(data, params, spec, prior, fact=None):
    """Dispatch the per-level log prior density for the configured kind.

    ``fact`` is an optional ``gls_fit(..., derivs=True)`` factorization at
    ``params``, reused by the kinds in ``FISHER_KINDS``.
    """
    if prior.kind == FLAT:
        return 0.0
    if prior.kind == INVERSE_RANGE:
        return -float(np.sum(np.log(params.phi)))
    if prior.kind == REFERENCE:
        return log_reference_prior(data, params, spec, fact)
    if prior.kind == JEFFREYS1:
        return log_jeffreys_prior(data, params, spec, variant="j1", fact=fact)
    if prior.kind == JEFFREYS2:
        return log_jeffreys_prior(data, params, spec, variant="j2", fact=fact)
    inputs = data.inputs
    ranges = inputs.max(axis=0) - inputs.min(axis=0)
    return log_jr_prior(params, prior, n_obs=data.n, input_ranges=ranges)
