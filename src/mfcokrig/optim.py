"""Derivative-free simplex maximization.

A small Nelder-Mead implementation is used instead of an off-the-shelf one
because the stop rule here is the function-value spread of the simplex
alone (plus an evaluation budget); common library implementations insist on
a joint parameter-and-value tolerance, which never triggers on the flat
ridges these objectives develop at extreme range parameters.

Coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidArgumentError


@dataclass(frozen=True)
class OptimResult:
    """Outcome of one simplex run.

    ``x`` and ``fun`` are the best point ever evaluated, which is not
    necessarily a vertex of the final simplex.
    """

    x: np.ndarray
    fun: float
    n_evals: int
    converged: bool


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
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    if x0.ndim != 1 or not np.all(np.isfinite(x0)):
        raise InvalidArgumentError("starting point must be a finite 1-d vector")
    d = x0.size
    if max_evals is None:
        max_evals = 500 * (d + 1)

    n_evals = 0
    best_x = None
    best_f = -np.inf

    class _BudgetExhausted(Exception):
        pass

    def evaluate(x):
        nonlocal n_evals, best_x, best_f
        if n_evals >= max_evals:
            raise _BudgetExhausted
        n_evals += 1
        f = float(func(x))
        if f > best_f:
            best_f = f
            best_x = x.copy()
        return f

    simplex = np.empty((d + 1, d))
    simplex[0] = x0
    for k in range(d):
        simplex[k + 1] = x0
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
    if best_x is None:
        raise InvalidArgumentError(
            f"evaluation budget {max_evals} is too small to evaluate the "
            f"initial simplex ({d + 1} points)"
        )
    return OptimResult(x=best_x, fun=best_f, n_evals=n_evals, converged=converged)
