"""Empirical-Bayes range estimation over nested multifidelity data.

``assemble`` validates hierarchical nesting and builds the per-level
regression structures; ``fit`` maximizes, independently per level, either
the integrated posterior of the log-inverse ranges (``method="posterior"``)
or the concentrated restricted likelihood baseline (``method="plugin"``),
from several starts.  Every objective has an analytic xi-gradient, and
every start runs L-BFGS-B (``optim.lbfgs_max``) on it.  Both objectives
score ``gp.log_likelihood`` in ``_evaluate``, and on the errors in
``INFEASIBLE`` score the sentinel, where ``tail_probe`` reads ``nan``.

The optimizer works in ``xi = log(1/phi)``.  For the posterior method the
maximized objective includes the Jacobian of the map from ``xi`` to the
variable the prior is a density on, so the maximized object is the posterior
density of ``xi`` itself; this convention is recorded on the FitResult.  The
term is ``sum(log phi) = -sum(xi)`` for the priors on ``phi`` and
``sum(log B) = +sum(xi)`` for ``jointly_robust``, a density on the inverse
ranges ``B = 1/phi``.  The plugin baseline is a likelihood, not a density,
so no Jacobian enters there.

A fit builds one ``kernels.Workspace`` per level: the packed distance
stack of the level's distinct row pairs and every buffer an evaluation
writes (R and the pair weights of the gradient, and for the
Fisher-information priors the derivative stack, the trace operands and the
gradient's two ``n x n`` scratch matrices).  Each point then costs one
correlation build and one in-place Cholesky factorization, shared by the
likelihood and the prior, with LAPACK called directly and no allocation of
an ``n x n`` or larger array.  The gradient adds ``R^-1`` or the GLS
projector, formed in place on the factor, and one gemv over the pairs
(``gp.log_likelihood_xi_grad``); under the reference and Jeffreys priors
the projector is the one the Fisher information reads, and the prior's
gradient adds about ``2d + 1`` gemms to its ``d``
(``priors.log_prior``).
"""

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial.distance import cdist

from .exceptions import (
    DegenerateDataError,
    DesignRankError,
    DuplicateRowError,
    EstimationError,
    InvalidArgumentError,
    NestingError,
    PriorEvaluationError,
    RangeOverflowError,
    SingularCorrelationError,
    is_int,
    is_real,
    real_array,
    require_types,
)
from .gp import (
    LevelData,
    constant_basis,
    gls_fit,
    input_spans,
    likelihood_columns,
    log_likelihood,
    log_likelihood_xi_grad,
    log_S2_exponent,
)
from .kernels import KernelSpec, RangeParams, Workspace, corr_matrix
# the sentinel of infeasible range parameters, at or below the threshold
from .optim import SENTINEL, SENTINEL_THRESHOLD
from .priors import FISHER_KINDS, JEFFREYS1, JOINTLY_ROBUST, PriorSpec, log_prior


# coordinates closer than this are the same design point
MATCH_TOL = 1e-12

POSTERIOR = "posterior"
PLUGIN = "plugin"
_METHODS = (POSTERIOR, PLUGIN)

XI_PARAMETERIZATION = "log_inverse_range_density"

# two starts agree on the best value when within this much of it,
# relative to max(1, |best|)
_AGREE_RTOL = 1e-6

# the starts after the first lie within this much of it in each
# coordinate of xi: a factor of e^3, about 20, either way in each range
START_HALF_WIDTH = 3.0

# a range above this many times its input column's span has run onto a
# ridge: every correlation in that column is within 3e-8 of 1 under
# power-exponential 1.9 (8e-9 under Matern 5/2), so the objective barely
# moves along it
RIDGE_SPANS = 1e4

# the errors that make a range infeasible: an objective evaluation that
# meets one scores the sentinel, a tail-probe point nan, and a benchmark
# replicate fails
INFEASIBLE = (RangeOverflowError, SingularCorrelationError, DegenerateDataError,
              PriorEvaluationError, DesignRankError)


@dataclass(frozen=True)
class OptimOptions:
    """Multi-start optimizer configuration.

    Each start runs L-BFGS-B.  ``tol`` is its ``gtol``, the largest
    gradient component at which it stops, and ``max_evals`` caps each
    start's evaluations, ``None`` meaning ``500 * (d + 1)``; a point a
    start evaluated before is served again from its memo, and is no
    evaluation.  ``n_starts`` is the most starts a level runs: a level
    stops after the start at which two starts that did not fail (see
    ``fit_level``) have reached its best value so far, to
    ``1e-6 * max(1, |best|)`` off a ridge, and a start after the first
    usable one ends once its own best agrees so.  The starts sit on the
    level's own scale (``fit_level``), drawn from a stream seeded by
    ``(seed, level, start)`` so runs are reproducible and levels
    independent.
    """

    seed: int = 0
    n_starts: int = 8
    tol: float = 1e-8
    max_evals: int = None

    def __post_init__(self):
        if not is_int(self.seed) or self.seed < 0:
            raise InvalidArgumentError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not is_int(self.n_starts) or self.n_starts < 1:
            raise InvalidArgumentError(
                f"n_starts must be an integer >= 1, got {self.n_starts!r}"
            )
        if self.max_evals is not None and (
            not is_int(self.max_evals) or self.max_evals < 1
        ):
            raise InvalidArgumentError(
                f"max_evals must be an integer >= 1 when given, got {self.max_evals!r}"
            )
        if not is_real(self.tol) or not 0.0 <= self.tol < math.inf:
            raise InvalidArgumentError(f"tol must be finite and >= 0, got {self.tol!r}")


@dataclass(frozen=True, eq=False)
class CokrigingData:
    """Validated multi-level training data, ordered low to high fidelity."""

    levels: tuple

    def __post_init__(self):
        levels = self.levels
        if not isinstance(levels, (tuple, list)) or not all(
            isinstance(lv, LevelData) for lv in levels
        ):
            raise InvalidArgumentError(
                f"levels must be a sequence of LevelData (see assemble), got {levels!r}"
            )
        levels = tuple(levels)
        if not levels:
            raise InvalidArgumentError("need at least one fidelity level")
        d = levels[0].dims
        for lv in levels:
            if lv.dims != d:
                raise InvalidArgumentError(
                    "all levels must share one input dimension; "
                    f"level {lv.index} has d={lv.dims}, expected {d}"
                )
        object.__setattr__(self, "levels", levels)

    @property
    def s(self):
        return len(self.levels)

    @property
    def dims(self):
        return self.levels[0].dims


def coincident_rows(A, B, tol=MATCH_TOL):
    """``(len(A), len(B))`` mask: row ``A[i]`` and row ``B[j]`` are the same
    point, every coordinate within ``tol``.

    The Chebyshev distance ``max_k |a_k - b_k|`` is at most ``tol`` exactly
    when every ``|a_k - b_k|`` is; a row with a non-finite coordinate
    matches nothing, as the per-coordinate test is then false.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    hits = cdist(A, B, "chebyshev") <= tol
    hits &= np.isfinite(A).all(axis=1)[:, None]
    hits &= np.isfinite(B).all(axis=1)
    return hits


def match_rows(child, parent, tol=MATCH_TOL):
    """Match each row of ``child`` to a row of ``parent`` within ``tol``
    per coordinate.  Returns the first matching parent index of each row,
    or raises with the first unmatched row index."""
    hits = coincident_rows(child, parent, tol)
    matched = hits.any(axis=1)
    if not matched.all():
        raise NestingError(
            f"row {int(np.argmin(matched))} of the child design has no match "
            "in the parent design"
        )
    if matched.size == 0:  # argmax needs a parent row, and there is nothing to match
        return np.empty(0, dtype=np.intp)
    return hits.argmax(axis=1)


def _check_no_duplicates(X, level_index):
    pairs = np.argwhere(np.triu(coincident_rows(X, X), k=1))
    if pairs.size:
        i, j = pairs[0]
        raise DuplicateRowError(f"level {level_index} design rows {i} and {j} coincide")


def _resolve_basis(basis, s):
    """Normalize the basis argument to one callable per level."""
    if basis is None or isinstance(basis, str) and basis == "constant":
        return [constant_basis] * s
    if callable(basis):
        return [basis] * s
    try:
        fns = list(basis)
    except TypeError as exc:
        raise InvalidArgumentError(
            f"basis must be 'constant', a callable or a sequence of callables, got {basis!r}"
        ) from exc
    if len(fns) != s:
        raise InvalidArgumentError(
            f"got {len(fns)} basis callables for {s} levels"
        )
    for fn in fns:
        if not callable(fn):
            raise InvalidArgumentError("basis entries must be callables")
    return fns


def assemble(raw_levels, basis="constant"):
    """Build CokrigingData from per-level ``(inputs, outputs)`` pairs.

    Levels are ordered lowest to highest fidelity.  Designs must be
    hierarchically nested: every input of level ``t`` must appear in level
    ``t-1`` (within 1e-12 per coordinate).  The matched lower-level outputs
    become the scale-link regression column of level ``t``.

    Parameters
    ----------
    raw_levels : sequence of (inputs, outputs)
        One pair per level: an ``(n, d)`` input matrix and its ``n``
        outputs, as a vector of shape ``(n,)`` or a column ``(n, 1)``.
        Outputs of any other shape raise ``InvalidArgumentError``.
    basis : "constant", callable, or sequence of callables
        Regression basis; the default is a single intercept column.
    """
    try:
        raw = list(raw_levels)
    except TypeError as exc:
        raise InvalidArgumentError(
            f"raw_levels must be a sequence of (inputs, outputs) pairs, got {raw_levels!r}"
        ) from exc
    if not raw:
        raise InvalidArgumentError("need at least one fidelity level")
    fns = _resolve_basis(basis, len(raw))
    levels = []
    prev_inputs = None
    prev_outputs = None
    for t, pair in enumerate(raw, start=1):
        try:
            inputs, outputs = pair
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"level {t} must be an (inputs, outputs) pair") from exc
        inputs = real_array(inputs, f"level {t} inputs")
        outputs = real_array(outputs, f"level {t} outputs")
        if inputs.ndim != 2:
            raise InvalidArgumentError(f"level {t} inputs must be a 2-d matrix")
        n = inputs.shape[0]
        if outputs.shape not in ((n,), (n, 1)):
            raise InvalidArgumentError(
                f"level {t} outputs must have shape ({n},) or ({n}, 1) for its "
                f"{n} input rows, got {outputs.shape}"
            )
        outputs = outputs.reshape(n)
        if t > 1 and inputs.shape[1] != prev_inputs.shape[1]:
            raise InvalidArgumentError(
                "all levels must share one input dimension; "
                f"level {t} has d={inputs.shape[1]}, expected {prev_inputs.shape[1]}"
            )
        _check_no_duplicates(inputs, t)
        lower = None
        if t > 1:
            try:
                idx = match_rows(inputs, prev_inputs)
            except NestingError as exc:
                raise NestingError(
                    f"designs are not nested: level {t} is not a subset of "
                    f"level {t - 1} ({exc})"
                ) from exc
            lower = prev_outputs[idx]
        H = np.asarray(fns[t - 1](inputs), dtype=np.float64)
        levels.append(
            LevelData(
                index=t,
                inputs=inputs,
                outputs=outputs,
                basis=H,
                lower_output=lower,
                basis_fn=fns[t - 1],
            )
        )
        prev_inputs = inputs
        prev_outputs = outputs
    return CokrigingData(levels=tuple(levels))


def _criterion(data_t, prior):
    """``(exponent, projected)`` of ``gp.log_likelihood``: the integrated
    likelihood's under ``prior``, the plug-in criterion's under ``None``."""
    if prior is None:
        return 0.5 * (data_t.n - data_t.q), False
    return log_S2_exponent(data_t, prior.a_t(data_t.q)), True


def _evaluate(data_t, xi, spec, prior, ws, grad):
    """The xi-space objective of one level: the log posterior under
    ``prior``, or the plug-in criterion when ``prior`` is ``None``.

    Maps ``xi`` to ranges, factorizes the level once (with the derivative
    stack for the kinds in ``FISHER_KINDS``) and scores the likelihood of
    ``_criterion``, plus, under a prior, the log prior and the Jacobian.
    ``grad``, when given, receives the xi-gradient of the same value.
    With no ``ws`` it builds the one the call needs: with the derivative
    buffers for those kinds, which they refuse a ``ws`` without, and the
    gradient's when ``grad`` is given.
    Returns a large negative sentinel, with a zero ``grad``, instead of
    raising when the ranges over- or underflow, an ``INFEASIBLE`` error is
    raised, or the value or the gradient is not finite, so the optimizer
    retreats rather than crashing.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    if xi.ndim != 1 or not np.isfinite(xi).all():
        raise InvalidArgumentError("xi must be a finite 1-d vector")
    exponent, projected = _criterion(data_t, prior)
    fisher = prior is not None and prior.kind in FISHER_KINDS
    if ws is None:
        ws = Workspace(data_t.inputs, spec, derivs=fisher, grad=grad is not None)
    elif fisher and ws.dR is None:
        raise InvalidArgumentError("the workspace was built without derivative buffers")
    with np.errstate(over="ignore"):
        phi = np.exp(-xi)
    value = SENTINEL
    # ranges that overflow to inf or underflow to 0 are infeasible, and
    # RangeParams rejects exactly those
    try:
        params = RangeParams(phi)
    except InvalidArgumentError:
        params = None
    if params is not None:
        try:
            fact = gls_fit(data_t, params, spec, ws=ws)
            value = log_likelihood(data_t, fact, exponent, projected)
            prior_grad = columns = None
            if prior is not None:
                jacobian_sign = 1.0 if prior.kind == JOINTLY_ROBUST else -1.0
                if grad is not None:
                    prior_grad = np.empty(grad.size)
                    if fisher:
                        # read before the prior consumes the factor: its
                        # projector less their outer product is the
                        # likelihood's, for which only jeffreys1's
                        # P = R^-1 needs the trend block too
                        columns = likelihood_columns(fact, exponent, prior.kind == JEFFREYS1)
                value += log_prior(data_t, params, spec, prior, fact=fact, grad=prior_grad)
                value += jacobian_sign * float(xi.sum())
            if grad is not None:
                log_likelihood_xi_grad(data_t, params, fact, exponent, grad, projected, columns)
            if prior_grad is not None:
                grad[:] += prior_grad + jacobian_sign
        except INFEASIBLE:
            value = SENTINEL
    failed = value == SENTINEL or not math.isfinite(value)
    if grad is not None and (failed or not np.isfinite(grad).all()):
        grad.fill(0.0)
        failed = True
    return SENTINEL if failed else value


def objective(data_t, xi, spec, prior, ws=None, grad=None):
    """Posterior log density of the log-inverse ranges at one level.

    Integrated log-likelihood plus log prior plus the reparameterization
    Jacobian: ``sum(log phi) = -sum(xi)`` for priors on ``phi``, and
    ``sum(log B) = +sum(xi)`` for ``jointly_robust``, a density on
    ``B = 1/phi``.  Returns a large negative sentinel instead of raising
    when the correlation matrix is singular, the data degenerate, or the
    prior unevaluable.  ``ws`` is an optional
    ``Workspace(data_t.inputs, spec, derivs=prior.kind in FISHER_KINDS)``
    whose buffers the evaluation writes.

    ``grad``, an optional float array of shape ``(d,)``, receives the
    xi-gradient of the same value, which is bit for bit the value without
    it.  It needs a ``ws`` built with ``grad=True`` or, for the kinds in
    ``FISHER_KINDS``, with ``derivs=True``, or none; any other ``ws``
    raises ``InvalidArgumentError``.  For those kinds one projector serves
    both gradients: the prior's ``Q`` or ``R^{-1}``, less the outer
    product of the likelihood's columns, which are taken from the factor
    first, is the likelihood's.  Under ``jeffreys2`` the prior's
    ``|X^T R^{-1} X|^{1/2}`` cancels the likelihood's, so that projector
    is ``R^{-1}`` less the residual term.
    """
    return _evaluate(data_t, xi, spec, prior, ws, grad)


def concentrated_restricted_likelihood(data_t, params, spec, fact=None):
    """Plug-in baseline criterion: ``-1/2 log|R| - ((n-q)/2) log S2``.

    This is the log-likelihood of the ranges with the trend and the variance
    profiled out, taken with the restricted degrees of freedom ``n - q``
    but without the ``-1/2 log|X^T R^{-1} X|`` term.  So it is neither the
    ML profile (``-1/2 log|R| - (n/2) log S2``) nor REML (this criterion
    plus ``-1/2 log|X^T R^{-1} X|``).  Its maximizer is plugged in without
    a prior.  On the seeded borehole benchmark all three criteria send
    inert inputs' ranges off to huge values, and all three give shorter
    median 95% intervals than the reference-prior posterior mode (ALCI
    6.536 under this criterion, 6.533 under REML and 6.550 under ML,
    against 6.708).  ``fact`` reuses a factorization at ``params``.
    """
    if fact is None:
        fact = gls_fit(data_t, params, spec)
    return log_likelihood(data_t, fact, *_criterion(data_t, None))


def _plugin_objective(data_t, xi, spec, ws=None, grad=None):
    """xi-space wrapper of the plug-in criterion with sentinel retreat.

    No Jacobian term: the maximized object is a likelihood, not a density.
    ``ws``, an optional ``Workspace(data_t.inputs, spec)``, and ``grad`` are
    as for ``objective``.
    """
    return _evaluate(data_t, xi, spec, None, ws, grad)


def tail_probe(data_t, spec, prior, phi_grid):
    """Integrated log-likelihood and log prior along an isotropic range ray.

    Returns ``(loglik, logprior)`` at ``phi = (g, ..., g)`` for each grid
    value ``g``: the likelihood ``objective`` scores, from a value-only
    ``gls_fit``, and ``log_prior``, which builds its own factorization for
    the kinds in ``FISHER_KINDS``.  A point where a column meets an
    ``INFEASIBLE`` error is ``nan`` there, and the sweep goes on.  Used to
    diagnose non-decaying posterior tails.
    """
    grid = np.asarray(phi_grid, dtype=np.float64).ravel()
    if not np.all(np.isfinite(grid)) or np.any(grid <= 0.0):
        raise InvalidArgumentError("phi grid must be finite and positive")
    exponent, projected = _criterion(data_t, prior)

    def column(score):
        out = np.full(grid.size, np.nan)
        for i, g in enumerate(grid):
            try:
                out[i] = score(RangeParams(np.full(data_t.dims, g)))
            except INFEASIBLE:
                pass
        return out

    return (
        column(lambda p: log_likelihood(data_t, gls_fit(data_t, p, spec), exponent, projected)),
        column(lambda p: log_prior(data_t, p, spec, prior)),
    )


@dataclass(frozen=True, eq=False)
class LevelFit:
    """Estimation outcome at one level.

    ``phi``, ``xi`` and ``b_hat`` are held as 1-d float arrays, ``phi``
    and ``xi`` of one length, and ``start_values`` as a tuple of floats,
    whatever sequences of real numbers (not booleans) they are built from.
    """

    level: int
    phi: np.ndarray
    xi: np.ndarray
    objective_value: float
    b_hat: np.ndarray
    sigma2_hat: float
    S2: float
    converged: bool
    n_evals: int
    best_start: int
    n_failed_starts: int
    start_values: tuple

    def __post_init__(self):
        checks = {
            int: (is_int, "an integer"),
            float: (is_real, "a number"),
            bool: (lambda v: isinstance(v, bool), "a boolean"),
        }
        for f in fields(self):
            if f.type in checks:
                ok, kind = checks[f.type]
                value = getattr(self, f.name)
                if not ok(value):
                    raise InvalidArgumentError(f"{f.name} must be {kind}, got {value!r}")
        for name in ("phi", "xi", "b_hat"):
            value = real_array(getattr(self, name), name)
            if value.ndim != 1:
                raise InvalidArgumentError(f"{name} must be 1-d, got shape {value.shape}")
            object.__setattr__(self, name, value)
        if self.xi.size != self.phi.size:
            raise InvalidArgumentError(
                f"xi must have the length of phi, {self.phi.size}, got {self.xi.size}"
            )
        values = tuple(self.start_values) if np.iterable(self.start_values) else None
        if values is None or not all(map(is_real, values)):
            raise InvalidArgumentError(
                f"start_values must be a sequence of numbers, got {self.start_values!r}"
            )
        object.__setattr__(self, "start_values", tuple(map(float, values)))

    @property
    def gamma(self):
        """Scale-link coefficient to the lower level; None at level one."""
        if self.level == 1:
            return None
        return float(self.b_hat[-1])


@dataclass(frozen=True, eq=False)
class FitResult:
    """Per-level estimates plus the configuration that produced them."""

    levels: tuple
    method: str
    prior: object
    spec: object
    opts: OptimOptions
    parameterization: str = XI_PARAMETERIZATION

    def __post_init__(self):
        levels = self.levels
        if not (isinstance(levels, tuple) and levels
                and all(isinstance(lf, LevelFit) for lf in levels)):
            raise InvalidArgumentError(
                f"levels must be a non-empty tuple of LevelFit, got {levels!r}"
            )
        _check_method(self.method)
        require_types(
            ("prior", self.prior, PriorSpec),
            ("spec", self.spec, KernelSpec),
            ("opts", self.opts, OptimOptions),
        )
        if self.parameterization != XI_PARAMETERIZATION:
            raise InvalidArgumentError(
                f"parameterization must be {XI_PARAMETERIZATION!r}, "
                f"got {self.parameterization!r}"
            )

    @property
    def s(self):
        return len(self.levels)

    def level(self, t):
        """LevelFit for one-based level ``t``."""
        return self.levels[t - 1]


def check_fit(data, fit_result):
    """Raise InvalidArgumentError unless ``fit_result`` is a ``FitResult``
    of the ``CokrigingData`` ``data``, one fit per level."""
    require_types(("data", data, CokrigingData), ("fit_result", fit_result, FitResult))
    if fit_result.s != data.s:
        raise InvalidArgumentError(f"fit has {fit_result.s} levels but data has {data.s}")


def _check_method(method):
    if not isinstance(method, str) or method not in _METHODS:
        raise InvalidArgumentError(f"method must be one of {_METHODS}, got {method!r}")


def _uncorrelated(data_t, xi, spec, ws):
    """Whether every correlation between distinct rows underflows to 0 at
    ``xi``.  The objective is then flat and its gradient exactly 0, so an
    L-BFGS-B start that ends there stopped on its gradient test having
    fitted nothing."""
    corr_matrix(data_t.inputs, RangeParams.from_xi(xi), spec, ws)
    return not ws.pairs[: data_t.n * (data_t.n - 1) // 2].any()


def _start_points(data_t, opts):
    """The start points of level ``data_t``: ``xi = -log(span)``, from the
    spans of ``gp.input_spans``, then that plus a draw uniform on
    ``[-START_HALF_WIDTH, START_HALF_WIDTH]^d`` for each further start."""
    centre = -np.log(input_spans(data_t))
    starts = [centre]
    for j in range(1, opts.n_starts):
        seq = np.random.SeedSequence(entropy=opts.seed, spawn_key=(data_t.index, j))
        u = np.random.default_rng(seq).uniform(-START_HALF_WIDTH, START_HALF_WIDTH, data_t.dims)
        starts.append(centre + u)
    return starts


def fit_level(data_t, spec, prior, opts=None, method=POSTERIOR):
    """Estimate the range parameters of one level by multi-start
    maximization in xi-space with ``optim.lbfgs_max`` and the analytic
    xi-gradient of the objective.  Deterministic given ``opts.seed``.

    Start 0 sets every range to its input column's span, and the others
    lie within a factor ``e^3`` of that in each range (``_start_points``),
    so inputs fit to the same ranges in whatever units they come in; a
    constant column, which has no span, raises ``InvalidArgumentError``.
    The starts run in order, and the level stops after the start at which
    two of them have reached its best value so far, within
    ``1e-6 * max(1, |best|)``, at points with no range above
    ``RIDGE_SPANS`` times its column's span, or after ``opts.n_starts``
    starts: two starts that ran onto such a ridge match in value wherever
    along it they end, so their agreement does not stop the level.  Every
    start after the first usable one gets that agreement band,
    ``[best - 1e-6 * max(1, |best|), best]``, and ends at its first
    evaluation whose running best lies in it; a start whose running best
    rises above ``best`` runs to its own stop, so the winning start always
    ran to its own stop.  A start whose best value is the sentinel, or
    whose best point leaves every pair of rows uncorrelated (every
    correlation underflowed, so the gradient there is exactly 0), has
    failed: it counts in ``n_failed_starts`` and never toward agreement.
    ``start_values`` and ``n_evals`` cover the starts that ran:
    ``start_values`` holds each start's best value when it ended, and
    ``n_evals`` the objective's calls, which points served again from a
    start's memo (``optim.lbfgs_max``) are not.
    """
    from .optim import lbfgs_max

    _check_method(method)
    if opts is None:
        opts = OptimOptions()
    require_types(
        ("spec", spec, KernelSpec), ("prior", prior, PriorSpec), ("opts", opts, OptimOptions)
    )
    if data_t.n - data_t.q < 2:
        raise InvalidArgumentError(
            f"level {data_t.index} needs n - q >= 2 to estimate ranges, "
            f"got n={data_t.n}, q={data_t.q}"
        )
    starts = _start_points(data_t, opts)
    # below this in any coordinate of xi, a start's best point is on a ridge
    ridge = -np.log(RIDGE_SPANS * input_spans(data_t))
    # one set of evaluation buffers for the whole fit; freed when it returns
    fisher = method == POSTERIOR and prior.kind in FISHER_KINDS
    ws = Workspace(data_t.inputs, spec, derivs=fisher, grad=True)

    # both objectives are looked up at call time, so wrappers installed on
    # this module see every evaluation
    if method == POSTERIOR:
        def func(xi, grad):
            return objective(data_t, xi, spec, prior, ws, grad)
    else:
        def func(xi, grad):
            return _plugin_objective(data_t, xi, spec, ws, grad)

    best = None
    best_start = -1
    total_evals = 0
    n_failed = 0
    start_values = []
    # the values of the usable starts that ended off a ridge
    usable = []
    # the values that agree with the best so far; every start after the
    # first usable one ends once its own best lies in it
    band = None
    for j, x0 in enumerate(starts):
        res = lbfgs_max(func, x0, tol=opts.tol, max_evals=opts.max_evals, band=band)
        total_evals += res.n_evals
        start_values.append(res.fun)
        if res.fun <= SENTINEL_THRESHOLD or _uncorrelated(data_t, res.x, spec, ws):
            n_failed += 1
            continue
        if best is None or res.fun > best.fun:
            best = res
            best_start = j
        if np.all(res.x >= ridge):
            usable.append(res.fun)
        band = (best.fun - _AGREE_RTOL * max(1.0, abs(best.fun)), best.fun)
        if sum(v >= band[0] for v in usable) >= 2:
            break
    if best is None:
        raise EstimationError(
            f"all {opts.n_starts} optimizer starts failed at level "
            f"{data_t.index} (singular correlation, degenerate data or every "
            "correlation underflowed throughout)"
        )
    xi_hat = best.x
    params = RangeParams.from_xi(xi_hat)
    # the workspace is free again; b_hat is no buffer of it.  The variance
    # estimate is the marginal posterior mode S2 / (n - q + 2)
    fact = gls_fit(data_t, params, spec, ws=ws)
    return LevelFit(
        level=data_t.index,
        phi=params.phi,
        xi=xi_hat.copy(),
        objective_value=best.fun,
        b_hat=fact.b_hat,
        sigma2_hat=fact.S2 / (data_t.n - data_t.q + 2.0),
        S2=fact.S2,
        converged=best.converged,
        n_evals=total_evals,
        best_start=best_start,
        n_failed_starts=n_failed,
        start_values=start_values,
    )


def fit(data, spec, prior, opts=None, method=POSTERIOR):
    """Estimate range parameters independently at every level.

    Levels never see data from above; level ``t`` reads level ``t-1`` only
    through the matched lower-output column fixed at assembly.
    """
    if not isinstance(data, CokrigingData):
        raise InvalidArgumentError(
            f"data must be a CokrigingData (see assemble), got {type(data).__name__}"
        )
    if opts is None:
        opts = OptimOptions()
    fits = []
    failures = []
    for lv in data.levels:
        try:
            fits.append(fit_level(lv, spec, prior, opts, method=method))
        except EstimationError as exc:
            failures.append((lv.index, str(exc)))
    if failures:
        detail = "; ".join(f"level {ix}: {msg}" for ix, msg in failures)
        raise EstimationError(f"estimation failed at {len(failures)} level(s): {detail}")
    return FitResult(
        levels=tuple(fits), method=method, prior=prior, spec=spec, opts=opts
    )
