"""Budgeted maximization from one start with L-BFGS-B, which every fit runs.

``lbfgs_max`` runs scipy's L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) without
bounds on the negated objective and its gradient.  It evaluates each
distinct point once: L-BFGS-B's failing final line searches return to
points the run has already evaluated, most often its best one, and those
are served from a memo of the run, keyed by the bytes of the point,
without calling the objective and without counting as evaluations.  It
enforces the evaluation budget itself, since scipy's ``maxfun`` is checked
only between iterations, where a line search can overrun it.  Given an
agreement band, it ends the run at the first evaluation whose running best
lies in the band.

It returns the best point ever evaluated and treats a value at or below
``SENTINEL_THRESHOLD`` as a sentinel of an infeasible region: L-BFGS-B's
line search retreats from a sentinel that comes with a zero gradient.
Where that retreat ends the L-BFGS-B run after it rose above its start's
value, ``lbfgs_max`` runs L-BFGS-B again from the best point, its memory
cleared, so the next step is a unit-length one along the gradient instead
of the quasi-Newton step that overshot.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .exceptions import InvalidArgumentError, MfcokrigError

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
    necessarily L-BFGS-B's last iterate.  ``converged`` is the optimizer's
    own stop test: the largest gradient component fell to ``tol``; or the
    run stopped where the objective's rounding ends all progress, on the
    relative reduction of the value falling below ``_LBFGS_FTOL`` or on a
    line search that found no decrease, unless that last line search met a
    sentinel: its step then collapsed at an infeasible region.  A run that
    started L-BFGS-B again after such a collapse is judged by its last
    L-BFGS-B run.  A run that ends on its evaluation budget or on its
    agreement band, or whose best value is a sentinel, is not converged.
    ``n_evals`` counts the objective's calls; a point served again from the
    run's memo is not one.
    """

    x: np.ndarray
    fun: float
    n_evals: int
    converged: bool


class _Stop(Exception):
    """The run's budget is spent, or its best value fell inside its
    agreement band."""


def nelder_mead_max(*args, **kwargs):
    """Retired: every fit runs ``lbfgs_max``.  The name stays only because
    the benchmark's tracer (``perfbench/tracing.py``) wraps it on traced
    runs and ``test_every_benchmark_hook_exists`` checks it; ROADMAP item 5
    removes it with the next change to that benchmark."""
    raise MfcokrigError("the Nelder-Mead simplex is retired; use optim.lbfgs_max")


def lbfgs_max(func, x0, tol=1e-8, max_evals=None, band=None):
    """Maximize ``func`` from ``x0`` with L-BFGS-B and an analytic gradient.

    Parameters
    ----------
    func : callable
        ``func(x, grad)`` returns the value at the 1-d point ``x`` as a
        float and writes its gradient into the array ``grad``.  A value at
        or below ``SENTINEL_THRESHOLD``, with a zero gradient, marks an
        infeasible point, from which the line search retreats; a run whose
        last line search met one, having risen above the value it started
        from, starts L-BFGS-B again from its best point.  It is
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
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    if x0.ndim != 1 or not np.all(np.isfinite(x0)):
        raise InvalidArgumentError("starting point must be a finite 1-d vector")
    if max_evals is None:
        max_evals = 500 * (x0.size + 1)
    grad = np.empty(x0.size)
    # value and gradient of every point evaluated, by the point's bytes, so
    # its size is the number of evaluations; and the best point among them
    memo = {}
    best_x, best_f = None, -np.inf
    # calls from L-BFGS-B, served ones included, at the start of the
    # current L-BFGS-B run, at the end of each of its iterations and at
    # the last sentinel: the final line search came after the last but one
    calls = 0
    ends = []
    last_sentinel = 0

    def negated(x):
        nonlocal calls, last_sentinel, best_x, best_f
        calls += 1
        key = x.tobytes()
        if key not in memo:
            if len(memo) >= max_evals:
                raise _Stop
            f = float(func(x, grad))
            memo[key] = f, grad.copy()
            if f > best_f:
                best_x, best_f = x.copy(), f
            if band is not None and band[0] <= best_f <= band[1]:
                raise _Stop
        f, g = memo[key]
        if f <= SENTINEL_THRESHOLD:
            last_sentinel = calls
        return -f, -g

    def iteration_end(xk):
        ends.append(calls)

    converged = False
    start = x0
    try:
        while True:
            ends[:] = [calls]
            res = minimize(
                negated, start, jac=True, method="L-BFGS-B", callback=iteration_end,
                # the budget binds, never scipy's count of calls
                options={"maxfun": _NO_LIMIT, "maxiter": max_evals,
                         "ftol": _LBFGS_FTOL, "gtol": tol},
            )
            # past the gradient test, L-BFGS-B stops where the objective's
            # rounding ends all progress: on its relative-reduction test,
            # or on a line search that finds no decrease even downhill
            # (status 2); but where that last search met a sentinel and
            # fell back, the step collapsed at an infeasible region instead
            gradient_test = res.status == 0 and float(np.abs(res.jac).max()) <= tol
            collapsed = last_sentinel > ends[-2 if len(ends) > 1 else 0]
            converged = (
                res.status != 1
                and best_f > SENTINEL_THRESHOLD
                and (gradient_test or not collapsed)
            )
            # a run that gained ground before its step collapsed starts
            # again from its best point, with L-BFGS-B's memory cleared
            if converged or res.status == 1 or best_f <= memo[start.tobytes()][0]:
                break
            start = best_x
    except _Stop:
        pass
    if best_x is None:
        raise InvalidArgumentError(
            f"evaluation budget {max_evals} is too small for the first evaluation"
        )
    return OptimResult(x=best_x, fun=best_f, n_evals=len(memo), converged=converged)
