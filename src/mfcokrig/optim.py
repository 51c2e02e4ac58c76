"""Budgeted maximization from one start: L-BFGS-B for objectives with an
analytic gradient, which every fit runs, and a derivative-free simplex.

``nelder_mead_max`` is a small Nelder-Mead implementation instead of an
off-the-shelf one because its stop rule is the function-value spread of
the simplex alone (plus an evaluation budget); common library
implementations insist on a joint parameter-and-value tolerance, which
never triggers on the flat ridges these objectives develop at extreme range
parameters.  Coefficients: reflection 1, expansion 2, contraction 0.5,
shrink 0.5.

``lbfgs_max`` runs scipy's L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) without
bounds on the negated objective and its gradient.  It evaluates each
distinct point once: L-BFGS-B's failing final line searches return to
points the run has already evaluated, most often its best one, and those
are served from a memo of the run, keyed by the bytes of the point,
without calling the objective and without counting as evaluations.  It
enforces the evaluation budget itself, since scipy's ``maxfun`` is checked
only between iterations, where a line search can overrun it, and counts
the served points too.  Given an agreement band, it ends the run at the
first evaluation whose running best lies in the band.  No fit runs the
simplex any more; the benchmark's tracer (``perfbench/tracing.py``) still
hooks it, so it goes with the next change to that harness.

Both return the best point ever evaluated and both treat a value at or
below ``SENTINEL_THRESHOLD`` as a sentinel of an infeasible region: the
simplex is repelled from it, and L-BFGS-B's line search retreats from a
sentinel that comes with a zero gradient.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .exceptions import InvalidArgumentError

# objective sentinel marking infeasible points; anything at or below the
# threshold is treated as a failed evaluation
SENTINEL = -1e300
SENTINEL_THRESHOLD = -1e299

# L-BFGS-B's relative-reduction stop, tight enough that the gradient test
# ends a run: (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) <= this
_LBFGS_FTOL = 1e-13
# scipy's maxfun when the budget is enforced here instead
_NO_LIMIT = np.iinfo(np.int64).max


@dataclass(frozen=True)
class OptimResult:
    """Outcome of one optimizer run from one start.

    ``x`` and ``fun`` are the best point ever evaluated, which is not
    necessarily the simplex's last vertex or L-BFGS-B's last iterate.
    ``converged`` is the optimizer's own stop test: for the simplex, the
    value spread of its vertices fell below ``tol``.  For L-BFGS-B, the
    largest gradient component fell to ``tol``; or the run stopped where
    the objective's rounding ends all progress, on the relative reduction
    of the value falling below ``_LBFGS_FTOL`` or on a line search that
    found no decrease, unless that last line search met a sentinel: its
    step then collapsed at an infeasible region.  A run that ends on its
    evaluation budget or on its agreement band, or whose best value is a
    sentinel, is not converged.  ``n_evals`` counts the objective's calls;
    a point served again from the run's memo is not one.
    """

    x: np.ndarray
    fun: float
    n_evals: int
    converged: bool


class _BudgetExhausted(Exception):
    pass


class _Agreed(Exception):
    """The run's best value fell inside its agreement band."""


class _Budget:
    """The evaluation budget of one run, and its best point so far."""

    def __init__(self, x0, max_evals):
        x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
        if x0.ndim != 1 or not np.all(np.isfinite(x0)):
            raise InvalidArgumentError("starting point must be a finite 1-d vector")
        self.x0 = x0
        self.max_evals = 500 * (x0.size + 1) if max_evals is None else max_evals
        self.n_evals = 0
        self.best_x = None
        self.best_f = -np.inf

    def evaluate(self, value_of, x):
        """``value_of(x)`` as a float, counted and kept when it is the best;
        raises ``_BudgetExhausted`` when no evaluation is left."""
        if self.n_evals >= self.max_evals:
            raise _BudgetExhausted
        self.n_evals += 1
        f = float(value_of(x))
        if f > self.best_f:
            self.best_f = f
            self.best_x = x.copy()
        return f

    def result(self, converged):
        if self.best_x is None:
            raise InvalidArgumentError(
                f"evaluation budget {self.max_evals} is too small for the first evaluation"
            )
        return OptimResult(
            x=self.best_x, fun=self.best_f, n_evals=self.n_evals, converged=converged
        )


def nelder_mead_max(func, x0, initial_step=0.5, tol=1e-8, max_evals=None):
    """Maximize ``func`` from ``x0`` with a Nelder-Mead simplex.

    Parameters
    ----------
    func : callable
        Maps a 1-d point to a float.  May return very large negative
        sentinels to mark infeasible regions; those repel the simplex.
    x0 : array_like
        Starting point; the initial simplex adds ``initial_step`` along
        each coordinate.
    tol : float
        Stop when ``max(f) - min(f)`` over the simplex drops below this.
    max_evals : int, optional
        Evaluation budget; defaults to ``500 * (len(x0) + 1)``.
    """
    budget = _Budget(x0, max_evals)
    d = budget.x0.size

    def evaluate(x):
        return budget.evaluate(func, x)

    simplex = np.empty((d + 1, d))
    simplex[0] = budget.x0
    for k in range(d):
        simplex[k + 1] = budget.x0
        simplex[k + 1, k] += initial_step

    converged = False
    fvals = None
    try:
        fvals = np.array([evaluate(v) for v in simplex])
        while True:
            order = np.argsort(-fvals)
            simplex = simplex[order]
            fvals = fvals[order]
            if fvals[0] - fvals[-1] < tol:
                converged = True
                break
            centroid = simplex[:-1].mean(axis=0)
            worst = simplex[-1]

            reflected = centroid + (centroid - worst)
            f_ref = evaluate(reflected)
            if f_ref > fvals[0]:
                expanded = centroid + 2.0 * (centroid - worst)
                f_exp = evaluate(expanded)
                if f_exp > f_ref:
                    simplex[-1], fvals[-1] = expanded, f_exp
                else:
                    simplex[-1], fvals[-1] = reflected, f_ref
                continue
            if f_ref > fvals[-2]:
                simplex[-1], fvals[-1] = reflected, f_ref
                continue
            if f_ref > fvals[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
                f_con = evaluate(contracted)
                if f_con > f_ref:
                    simplex[-1], fvals[-1] = contracted, f_con
                    continue
            else:
                contracted = centroid + 0.5 * (worst - centroid)
                f_con = evaluate(contracted)
                if f_con > fvals[-1]:
                    simplex[-1], fvals[-1] = contracted, f_con
                    continue
            # shrink toward the best vertex
            for k in range(1, d + 1):
                simplex[k] = simplex[0] + 0.5 * (simplex[k] - simplex[0])
                fvals[k] = evaluate(simplex[k])
    except _BudgetExhausted:
        pass

    # the budget can die inside an iteration; re-check the spread so a
    # simplex that tightened on its last moves still reports convergence
    if fvals is not None and not converged and fvals.max() - fvals.min() < tol:
        converged = True
    return budget.result(converged)


def lbfgs_max(func, x0, tol=1e-8, max_evals=None, band=None):
    """Maximize ``func`` from ``x0`` with L-BFGS-B and an analytic gradient.

    Parameters
    ----------
    func : callable
        ``func(x, grad)`` returns the value at the 1-d point ``x`` as a
        float and writes its gradient into the array ``grad``.  A value at
        or below ``SENTINEL_THRESHOLD``, with a zero gradient, marks an
        infeasible point, from which the line search retreats.  It is
        called once per distinct point: a point the run evaluated before
        gets the value and gradient it had then.
    x0 : array_like
        Starting point.
    tol : float
        L-BFGS-B's ``gtol``: stop when the largest gradient component
        drops to this.
    max_evals : int, optional
        Budget of calls to ``func``, never exceeded; defaults to
        ``500 * (len(x0) + 1)``.  Points served from the memo are free.
    band : (float, float), optional
        Agreement band ``(low, high)``: the run ends, not converged, at
        the first call to ``func`` after which its best value lies in
        ``[low, high]``.  A run whose best value rises above ``high`` runs
        to its own stop.
    """
    budget = _Budget(x0, max_evals)
    grad = np.empty(budget.x0.size)
    # value and gradient of every point evaluated, by the point's bytes
    memo = {}
    # calls from L-BFGS-B, served ones included, at the end of each
    # iteration and at the last sentinel: the final line search is what
    # came after the last but one
    calls = 0
    ends = [0]
    last_sentinel = 0

    def negated(x):
        nonlocal calls, last_sentinel
        calls += 1
        key = x.tobytes()
        if key in memo:
            f, g = memo[key]
        else:
            f = budget.evaluate(value, x)
            g = grad.copy()
            memo[key] = f, g
            if band is not None and band[0] <= budget.best_f <= band[1]:
                raise _Agreed
        if f <= SENTINEL_THRESHOLD:
            last_sentinel = calls
        return -f, -g

    def value(x):
        return func(x, grad)

    def iteration_end(xk):
        ends.append(calls)

    converged = False
    try:
        res = minimize(
            negated,
            budget.x0,
            jac=True,
            method="L-BFGS-B",
            callback=iteration_end,
            options={
                # the budget binds, never scipy's count of calls
                "maxfun": _NO_LIMIT,
                "maxiter": budget.max_evals,
                "ftol": _LBFGS_FTOL,
                "gtol": tol,
            },
        )
        # past the gradient test, L-BFGS-B stops where the objective's
        # rounding ends all progress: on its relative-reduction test, or
        # on a line search that finds no decrease even downhill (status
        # 2); but where that last search met a sentinel and fell back, the
        # step collapsed at an infeasible region instead
        gradient_test = res.status == 0 and float(np.abs(res.jac).max()) <= tol
        last_search = ends[-2] if len(ends) > 1 else 0
        converged = (
            res.status != 1
            and budget.best_f > SENTINEL_THRESHOLD
            and (gradient_test or last_sentinel <= last_search)
        )
    except (_BudgetExhausted, _Agreed):
        pass
    return budget.result(converged)
