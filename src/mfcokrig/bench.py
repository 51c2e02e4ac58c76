"""Borehole two-fidelity testbed and the RMSPE/CVG/ALCI evaluation loop.

The borehole function models water flow through a borehole drilled between
two aquifers.  The high-fidelity response is the standard eight-input
formula; the low-fidelity variant replaces its leading ``2 pi`` by 5 and
the 1 inside the bracket by 1.5.  Inputs are modeled on the unit cube and
mapped to the physical box only inside the simulators.

The benchmark repeats a standard split (100-point Latin hypercube, 20
held out, 80 low-fidelity runs, 30 nested high-fidelity runs) over seeded
replicates and reports median RMSPE, 95% interval coverage, and average
interval length, because any single random split is design-dependent.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .estimate import INFEASIBLE, POSTERIOR, OptimOptions, _check_method, assemble, fit
from .exceptions import (
    BenchmarkError,
    DomainError,
    EstimationError,
    InvalidArgumentError,
    is_int,
    real_array,
)
from .kernels import KernelSpec
from .modelio import record
from .predict import CokrigingModel
from .priors import PriorSpec

# physical box: (name, low, high) in simulator order
BOREHOLE_BOX = (
    ("r_w", 0.05, 0.15),
    ("r", 100.0, 50000.0),
    ("T_u", 63070.0, 115600.0),
    ("H_u", 990.0, 1110.0),
    ("T_l", 63.1, 116.0),
    ("H_l", 700.0, 820.0),
    ("L", 1120.0, 1680.0),
    ("K_w", 9855.0, 12045.0),
)
BOREHOLE_DIM = len(BOREHOLE_BOX)


def _flow(x, lead, offset):
    """Water flow rate ``lead T_u (H_u - H_l) / (log(r / r_w) (offset +
    2 L T_u / (log(r / r_w) r_w^2 K_w) + T_u / T_l))`` at the 8 physical
    coordinates ``x``, each checked against its range in ``BOREHOLE_BOX``."""
    x = real_array(x, "x").ravel()
    if x.size != BOREHOLE_DIM:
        raise InvalidArgumentError(f"expected {BOREHOLE_DIM} coordinates, got {x.size}")
    point = x.tolist()
    for value, (name, lo, hi) in zip(point, BOREHOLE_BOX):
        if not lo <= value <= hi:
            raise DomainError(f"{name}={value} outside its physical range [{lo}, {hi}]")
    r_w, r, T_u, H_u, T_l, H_l, L, K_w = point
    log_ratio = math.log(r / r_w)
    bracket = 2.0 * L * T_u / (log_ratio * r_w**2 * K_w) + T_u / T_l
    return lead * T_u * (H_u - H_l) / (log_ratio * (offset + bracket))


def borehole_high(x):
    """High-fidelity water flow rate through the borehole."""
    return _flow(x, 2.0 * math.pi, 1.0)


def borehole_low(x):
    """Cheap approximation: leading constant 5 and bracket offset 1.5."""
    return _flow(x, 5.0, 1.5)


def scale_to_box(U):
    """Map unit-cube rows to the physical borehole box."""
    U = real_array(U, "U")
    if U.ndim != 2 or U.shape[1] != BOREHOLE_DIM:
        raise InvalidArgumentError(f"expected (m, {BOREHOLE_DIM}) unit-cube rows")
    if np.any(U < 0.0) or np.any(U > 1.0):
        raise DomainError("unit-cube rows must lie in [0, 1]")
    lo = np.array([b[1] for b in BOREHOLE_BOX])
    hi = np.array([b[2] for b in BOREHOLE_BOX])
    return lo + U * (hi - lo)


def lhs_design(n, d, seed=0):
    """Latin hypercube sample on the unit cube: per column, one uniform
    point in each of ``n`` equal strata, in shuffled order.  ``seed`` is a
    ``np.random.Generator`` or an integer >= 0."""
    if not (is_int(n) and is_int(d) and n >= 1 and d >= 1):
        raise InvalidArgumentError(f"n and d must be integers >= 1, got {n!r} and {d!r}")
    if not (isinstance(seed, np.random.Generator) or is_int(seed) and seed >= 0):
        raise InvalidArgumentError(f"seed must be a Generator or an integer >= 0, got {seed!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    out = np.empty((n, d))
    for k in range(d):
        out[:, k] = (rng.permutation(n) + rng.random(n)) / n
    return out


@dataclass(frozen=True, eq=False)
class BenchmarkReport:
    """Median metrics over replicates plus the per-replicate table."""

    rmspe: float
    cvg95: float
    alci95: float
    replicates: tuple
    config: dict
    seed: int
    n_failed: int

    def to_dict(self):
        def clean(value):
            if isinstance(value, float) and not math.isfinite(value):
                return None
            if isinstance(value, dict):
                return {k: clean(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [clean(v) for v in value]
            return value

        return {
            "rmspe": clean(self.rmspe),
            "cvg95": clean(self.cvg95),
            "alci95": clean(self.alci95),
            "replicates": [clean(dict(r)) for r in self.replicates],
            "config": dict(self.config),
            "seed": self.seed,
            "n_failed": self.n_failed,
        }


def _replicate_seeds(rep, seed):
    return np.random.SeedSequence(entropy=seed, spawn_key=(rep,)).spawn(3)


def replicate_design(rep, seed, n_low, n_high, n_test):
    """Unit-cube split of one benchmark replicate.

    Returns ``(U, low_idx, high_idx, test_idx)``: the Latin hypercube of
    ``n_low + n_test`` points and the row indices of the low-fidelity runs,
    the nested high-fidelity runs and the held-out points, exactly as
    ``run_borehole_benchmark`` draws them for replicate ``rep``.
    """
    kids = _replicate_seeds(rep, seed)
    rng_design = np.random.default_rng(kids[0])
    rng_split = np.random.default_rng(kids[1])
    n_lhs = n_low + n_test
    U = lhs_design(n_lhs, BOREHOLE_DIM, rng_design)

    test_idx = rng_split.choice(n_lhs, size=n_test, replace=False)
    train_mask = np.ones(n_lhs, dtype=bool)
    train_mask[test_idx] = False
    low_idx = np.nonzero(train_mask)[0]
    high_pos = rng_split.choice(low_idx.size, size=n_high, replace=False)
    high_idx = low_idx[high_pos]
    return U, low_idx, high_idx, test_idx


def _replicate_metrics(rep, seed, n_low, n_high, n_test, spec, prior, method, opts_base):
    """Run one seeded replicate; returns the metrics dict."""
    kids = _replicate_seeds(rep, seed)
    fit_seed = int(kids[2].generate_state(1, np.uint64)[0] % np.iinfo(np.int64).max)

    U, low_idx, high_idx, test_idx = replicate_design(rep, seed, n_low, n_high, n_test)
    X_phys = scale_to_box(U)

    y_low = np.array([borehole_low(X_phys[i]) for i in low_idx])
    y_high = np.array([borehole_high(X_phys[i]) for i in high_idx])
    y_truth = np.array([borehole_high(X_phys[i]) for i in test_idx])

    data = assemble([(U[low_idx], y_low), (U[high_idx], y_high)])
    opts = replace(opts_base, seed=fit_seed)
    result = fit(data, spec, prior, opts, method=method)
    model = CokrigingModel(data, result)

    pred, intervals = model._read(U[test_idx], 0.95)
    means = pred.means[:, -1]
    lo, hi = intervals[:, data.s - 1, 0], intervals[:, data.s - 1, 1]
    rmspe = float(np.sqrt(np.mean((means - y_truth) ** 2)))
    covered = (y_truth >= lo) & (y_truth <= hi)
    cvg = float(np.mean(covered))
    alci = float(np.mean(hi - lo))
    phi_by_level = {f"phi_level{lf.level}": [float(v) for v in lf.phi] for lf in result.levels}
    return {
        "replicate": rep,
        "rmspe": rmspe,
        "cvg95": cvg,
        "alci95": alci,
        "failed": False,
        "reason": "",
        **phi_by_level,
    }


def run_borehole_benchmark(
    n_low=80,
    n_high=30,
    n_test=20,
    prior=None,
    spec=None,
    seed=0,
    n_reps=10,
    method=POSTERIOR,
    opts=None,
):
    """Seeded multifidelity benchmark on the borehole pair.

    Per replicate: draw a fresh Latin hypercube of ``n_low + n_test``
    points, hold out ``n_test``, run the cheap code on the rest, nest
    ``n_high`` expensive runs inside them, fit a two-level model, and score
    held-out predictions at the top level.  Replicates that fail to fit are
    excluded with a warning when fewer than 20% fail; more than that aborts.
    """
    sizes = {"n_low": n_low, "n_high": n_high, "n_test": n_test, "n_reps": n_reps}
    for name, value in sizes.items():
        if not is_int(value) or value < 1:
            raise InvalidArgumentError(f"{name} must be an integer >= 1, got {value!r}")
    if not is_int(seed) or seed < 0:
        raise InvalidArgumentError(f"seed must be an integer >= 0, got {seed!r}")
    if n_high > n_low:
        raise InvalidArgumentError("n_high must be <= n_low (nested by subsampling)")
    if prior is None:
        prior = PriorSpec(kind="reference")
    if spec is None:
        spec = KernelSpec(family="power_exponential", shape=1.9, dims=BOREHOLE_DIM)
    if spec.dims != BOREHOLE_DIM:
        raise InvalidArgumentError(f"borehole kernel must have dims={BOREHOLE_DIM}")
    _check_method(method)
    if opts is None:
        opts = OptimOptions()

    replicates = []
    for rep in range(n_reps):
        try:
            replicates.append(
                _replicate_metrics(
                    rep, seed, n_low, n_high, n_test, spec, prior, method, opts
                )
            )
        except (EstimationError,) + INFEASIBLE as exc:
            replicates.append(
                {
                    "replicate": rep,
                    "rmspe": float("nan"),
                    "cvg95": float("nan"),
                    "alci95": float("nan"),
                    "failed": True,
                    "reason": str(exc),
                }
            )
    failed = [r for r in replicates if r["failed"]]
    if len(failed) > 0.2 * n_reps:
        raise BenchmarkError(
            f"{len(failed)} of {n_reps} replicates failed to fit; first "
            f"reason: {failed[0]['reason']}"
        )
    if failed:
        warnings.warn(
            f"excluded {len(failed)} failed replicate(s) from the medians",
            stacklevel=2,
        )
    ok = [r for r in replicates if not r["failed"]]
    config = {
        "n_low": n_low,
        "n_high": n_high,
        "n_test": n_test,
        "n_reps": n_reps,
        "method": method,
        "kernel": record(spec),
        "prior": record(prior),
        "optimizer": record(opts),
        "metric_note": (
            "medians over seeded replicates; single-split results vary with "
            "the random design"
        ),
    }
    return BenchmarkReport(
        rmspe=float(np.median([r["rmspe"] for r in ok])),
        cvg95=float(np.median([r["cvg95"] for r in ok])),
        alci95=float(np.median([r["alci95"] for r in ok])),
        replicates=tuple(replicates),
        config=config,
        seed=seed,
        n_failed=len(failed),
    )
