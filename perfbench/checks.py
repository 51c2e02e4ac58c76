"""Correctness checks on the outputs of one benchmark operation.

Each check returns a list of failure messages; an empty list means the
output passed.  The functions are bound at import, before any tracing
patch, so re-evaluating an objective here records no span.
"""

import csv
import hashlib
import math

import numpy as np

from mfcokrig.estimate import (
    PLUGIN,
    SENTINEL_THRESHOLD,
    concentrated_restricted_likelihood,
    objective,
)
from mfcokrig.kernels import RangeParams

# tolerance of the objective re-evaluation: the same function at the same
# point, so anything beyond rounding means the reported optimum is not
# where the optimizer says it is
OBJECTIVE_RTOL = 1e-10
# CSV floats are written shortest-round-trip, so they parse back exactly;
# the slack only absorbs a different BLAS summation order
MEANS_RTOL = 1e-12
DESIGN_RTOL = 1e-6


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_fit(result, data):
    """Each level's best value is no sentinel and re-evaluates exactly."""
    failures = []
    for lf, lv in zip(result.levels, data.levels):
        if lf.objective_value <= SENTINEL_THRESHOLD:
            failures.append(f"level {lf.level}: best objective is the sentinel")
            continue
        if result.method == PLUGIN:
            value = concentrated_restricted_likelihood(
                lv, RangeParams.from_xi(lf.xi), result.spec
            )
        else:
            value = objective(lv, lf.xi, result.spec, result.prior)
        if not math.isclose(
            value, lf.objective_value, rel_tol=OBJECTIVE_RTOL, abs_tol=OBJECTIVE_RTOL
        ):
            failures.append(
                f"level {lf.level}: objective at the returned xi is {value!r}, "
                f"fit reports {lf.objective_value!r}"
            )
    return failures


def rmspe(means, truth):
    return float(np.sqrt(np.mean((np.asarray(means) - np.asarray(truth)) ** 2)))


def check_rmspe(value, truth):
    """Top-level RMSPE is finite and beats predicting the held-out mean."""
    sd = float(np.std(truth))
    if not math.isfinite(value) or not value < sd:
        return [f"rmspe {value!r} is not finite and below the truth's sd {sd!r}"]
    return []


def read_predictions(path, n_levels):
    """``predictions.csv`` as (mean, variance, lo95, hi95) arrays of shape
    (points, levels)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = [header.index(k) for k in ("mean", "variance", "lo95", "hi95")]
    table = np.array([[float(r[c]) for c in cols] for r in body])
    table = table.reshape(-1, n_levels, 4)
    return tuple(table[:, :, k] for k in range(4))


def max_rel_err(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


def check_predictions(path, library, design_rows, design_outputs):
    """Compare the CLI's ``predictions.csv`` with library ``predict`` at the
    same grid.

    ``design_rows`` indexes the grid rows that are training inputs of every
    level; ``design_outputs`` holds their training outputs, one column per
    level.
    """
    failures = []
    s = library.means.shape[1]
    mean, var, lo, hi = read_predictions(path, s)
    if mean.shape != library.means.shape:
        return [f"predictions.csv has {mean.shape} means, library {library.means.shape}"]
    bad = ~np.isclose(mean, library.means, rtol=MEANS_RTOL, atol=0.0)
    if bad.any():
        i, t = np.argwhere(bad)[0]
        failures.append(
            f"{int(bad.sum())} CSV means differ from library predict, first at "
            f"row {i} level {t + 1}: {float(mean[i, t])!r} vs {float(library.means[i, t])!r}"
        )
    if (var < 0.0).any() or (library.variances < 0.0).any():
        failures.append("negative predictive variance")
    outside = (lo[:, 0] > mean[:, 0]) | (mean[:, 0] > hi[:, 0])
    if outside.any():
        failures.append(f"{int(outside.sum())} level-1 intervals miss their mean")
    got = mean[design_rows]
    miss = np.abs(got - design_outputs) > DESIGN_RTOL * np.abs(design_outputs)
    if miss.any():
        i, t = np.argwhere(miss)[0]
        failures.append(
            f"{int(miss.sum())} design-point means miss their training output, "
            f"first {float(got[i, t])!r} vs {float(design_outputs[i, t])!r} at level {t + 1}"
        )
    return failures


def check_digests(seen, name, digest):
    """Outputs of repeated, identical operations are byte-identical."""
    first = seen.setdefault(name, digest)
    if digest != first:
        return [f"{name} differs from its first repetition (sha256 {digest[:12]})"]
    return []
