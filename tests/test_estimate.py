"""Data assembly, the posterior objective, and multi-start estimation."""

import math

import numpy as np
import pytest

from mfcokrig.bench import borehole_high, borehole_low, replicate_design, scale_to_box
from mfcokrig.estimate import (
    PLUGIN,
    POSTERIOR,
    SENTINEL_THRESHOLD,
    CokrigingData,
    OptimOptions,
    assemble,
    concentrated_restricted_likelihood,
    fit,
    fit_level,
    match_rows,
    objective,
)
from mfcokrig.exceptions import (
    DuplicateRowError,
    EstimationError,
    InvalidArgumentError,
    NestingError,
)
from mfcokrig.gp import integrated_log_likelihood
from mfcokrig.kernels import (
    MATERN,
    POWER_EXPONENTIAL,
    KernelSpec,
    RangeParams,
    corr_matrix,
)
from mfcokrig.priors import PRIOR_KINDS, PriorSpec, log_prior
from oracles import dense_objective


def _nested_pair(rng, n1=14, n2=7, d=2, gamma=1.6):
    X1 = rng.uniform(0.0, 1.0, size=(n1, d))
    X2 = X1[rng.choice(n1, size=n2, replace=False)]
    f = lambda X: np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2
    y1 = f(X1) + 0.1 * rng.standard_normal(n1)
    idx = match_rows(X2, X1)
    y2 = gamma * y1[idx] + 0.3 * np.cos(5.0 * X2[:, 0]) + 0.5
    return (X1, y1), (X2, y2)


class TestMatchRows:
    def test_exact_and_tolerant_matching(self):
        rng = np.random.default_rng(1)
        parent = rng.uniform(size=(10, 3))
        order = rng.permutation(10)[:4]
        child = parent[order] + 1e-14
        np.testing.assert_array_equal(match_rows(child, parent), order)

    def test_unmatched_row_raises_with_index(self):
        parent = np.zeros((3, 2))
        parent[1] = [0.5, 0.5]
        parent[2] = [1.0, 1.0]
        child = np.array([[0.5, 0.5], [0.25, 0.25]])
        with pytest.raises(NestingError, match="row 1"):
            match_rows(child, parent)


class TestAssemble:
    def test_builds_scale_link_column(self):
        rng = np.random.default_rng(2)
        (X1, y1), (X2, y2) = _nested_pair(rng)
        data = assemble([(X1, y1), (X2, y2)])
        assert data.s == 2
        assert data.dims == 2
        lv1, lv2 = data.levels
        assert lv1.q == 1 and lv2.q == 2
        idx = match_rows(X2, X1)
        np.testing.assert_array_equal(lv2.lower_output, y1[idx])
        np.testing.assert_array_equal(lv2.design[:, 1], y1[idx])

    def test_three_levels_chain(self):
        rng = np.random.default_rng(3)
        X1 = rng.uniform(size=(16, 2))
        X2 = X1[:9]
        X3 = X2[:4]
        y1 = rng.standard_normal(16)
        y2 = rng.standard_normal(9)
        y3 = rng.standard_normal(4)
        data = assemble([(X1, y1), (X2, y2), (X3, y3)])
        np.testing.assert_array_equal(data.levels[1].lower_output, y1[:9])
        np.testing.assert_array_equal(data.levels[2].lower_output, y2[:4])

    def test_rejects_non_nested_designs(self):
        rng = np.random.default_rng(4)
        X1 = rng.uniform(size=(8, 2))
        X2 = rng.uniform(size=(4, 2))  # fresh points, not a subset
        with pytest.raises(NestingError, match="not nested"):
            assemble([(X1, rng.standard_normal(8)), (X2, rng.standard_normal(4))])

    def test_rejects_duplicate_rows(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(6, 2))
        X[4] = X[1]
        with pytest.raises(DuplicateRowError, match="rows 1 and 4"):
            assemble([(X, rng.standard_normal(6))])

    def test_rejects_dimension_mismatch_across_levels(self):
        rng = np.random.default_rng(6)
        X1 = rng.uniform(size=(8, 2))
        with pytest.raises(InvalidArgumentError):
            CokrigingData(
                levels=(
                    assemble([(X1, rng.standard_normal(8))]).levels[0],
                    assemble([(rng.uniform(size=(5, 3)), rng.standard_normal(5))]).levels[0],
                )
            )

    def test_custom_basis(self):
        rng = np.random.default_rng(7)
        (X1, y1), (X2, y2) = _nested_pair(rng)

        def linear_basis(X):
            return np.column_stack([np.ones(X.shape[0]), X[:, 0]])

        data = assemble([(X1, y1), (X2, y2)], basis=linear_basis)
        assert data.levels[0].p == 2
        assert data.levels[1].q == 3
        with pytest.raises(InvalidArgumentError):
            assemble([(X1, y1), (X2, y2)], basis=[linear_basis])

    def test_requires_at_least_one_level(self):
        with pytest.raises(InvalidArgumentError):
            assemble([])


class TestObjective:
    def test_composes_likelihood_prior_and_jacobian(self):
        rng = np.random.default_rng(10)
        (X1, y1), pair2 = _nested_pair(rng)
        data = assemble([(X1, y1), pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        prior = PriorSpec(kind="reference")
        for lv in data.levels:
            xi = rng.uniform(-1.0, 1.0, size=2)
            params = RangeParams.from_xi(xi)
            want = (
                integrated_log_likelihood(lv, params, spec, prior.a_t(lv.q))
                + log_prior(lv, params, spec, prior)
                - float(np.sum(xi))
            )
            assert objective(lv, xi, spec, prior) == pytest.approx(want, rel=1e-12)

    def test_sentinel_on_singular_correlation(self):
        rng = np.random.default_rng(11)
        (X1, y1), _ = _nested_pair(rng)
        data = assemble([(X1, y1)])
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=2, nugget=0.0)
        prior = PriorSpec(kind="flat")
        # xi = -20 means phi ~ 5e8: the correlation matrix is numerically
        # all ones and must fail its factorization
        value = objective(data.levels[0], np.full(2, -20.0), spec, prior)
        assert value <= SENTINEL_THRESHOLD

    def test_rejects_non_finite_xi(self):
        rng = np.random.default_rng(12)
        (X1, y1), _ = _nested_pair(rng)
        data = assemble([(X1, y1)])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        with pytest.raises(InvalidArgumentError):
            objective(data.levels[0], np.array([np.nan, 0.0]), spec, PriorSpec(kind="flat"))


def _borehole_levels():
    """Replicate 0 of the seeded borehole split: 80 low, 30 nested high runs."""
    U, low_idx, high_idx, _ = replicate_design(0, 0, 80, 30, 20)
    X = scale_to_box(U)
    y_low = np.array([borehole_low(X[i]) for i in low_idx])
    y_high = np.array([borehole_high(X[i]) for i in high_idx])
    return assemble([(U[low_idx], y_low), (U[high_idx], y_high)]).levels


class TestObjectiveAgainstDenseOracle:
    # S2 at level 2 is about 2e-7 of y^T R^-1 y, so a one-ulp change of R
    # moves the objective there by a few 1e-11 relative
    RTOL = 1e-10
    XI_GRID = (
        np.zeros(8),
        np.full(8, -1.0),
        np.full(8, 1.0),
        np.linspace(-1.5, 1.5, 8),
    )
    KERNELS = (
        (POWER_EXPONENTIAL, 1.0),
        (POWER_EXPONENTIAL, 1.9),
        (MATERN, 0.5),
        (MATERN, 1.5),
        (MATERN, 2.5),
    )

    def test_every_prior_and_kernel_on_both_borehole_levels(self):
        worst = 0.0
        for family, shape in self.KERNELS:
            spec = KernelSpec(family=family, shape=shape, dims=8)
            for lv in _borehole_levels():
                for kind in PRIOR_KINDS:
                    prior = PriorSpec(kind=kind)
                    for xi in self.XI_GRID:
                        got = objective(lv, xi, spec, prior)
                        want = dense_objective(lv, xi, spec, prior)
                        assert got > SENTINEL_THRESHOLD
                        worst = max(worst, abs(got - want) / abs(want))
        assert worst <= self.RTOL


class TestConcentratedRestrictedLikelihood:
    def test_closed_form(self):
        rng = np.random.default_rng(20)
        (X1, y1), _ = _nested_pair(rng)
        data = assemble([(X1, y1)])
        lv = data.levels[0]
        spec = KernelSpec(family=MATERN, shape=1.5, dims=2)
        params = RangeParams(np.array([0.6, 1.1]))
        got = concentrated_restricted_likelihood(lv, params, spec)
        R = corr_matrix(lv.inputs, params, spec)
        Rinv = np.linalg.inv(R)
        X = lv.design
        b = np.linalg.solve(X.T @ Rinv @ X, X.T @ Rinv @ lv.outputs)
        resid = lv.outputs - X @ b
        S2 = float(resid @ Rinv @ resid)
        want = -0.5 * np.linalg.slogdet(R)[1] - 0.5 * (lv.n - lv.q) * math.log(S2)
        assert got == pytest.approx(want, rel=1e-10)


class TestOptimOptions:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            OptimOptions(n_starts=0)
        with pytest.raises(InvalidArgumentError):
            OptimOptions(max_evals=0)
        with pytest.raises(InvalidArgumentError):
            OptimOptions(start_low=1.0, start_high=-1.0)

    def test_rejects_zero_or_nan_initial_step(self):
        # a zero step collapses the simplex onto the start point
        for step in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(InvalidArgumentError, match="initial_step"):
                OptimOptions(initial_step=step)

    def test_rejects_negative_tol(self):
        # a negative spread tolerance can never be met
        for tol in (-1e-8, float("nan")):
            with pytest.raises(InvalidArgumentError, match="tol"):
                OptimOptions(tol=tol)

    def test_rejects_non_integer_n_starts(self):
        for n_starts in (2.5, 2.0, True, "3"):
            with pytest.raises(InvalidArgumentError, match="n_starts"):
                OptimOptions(n_starts=n_starts)

    def test_rejects_non_integer_max_evals(self):
        for max_evals in (100.5, 100.0, True):
            with pytest.raises(InvalidArgumentError, match="max_evals"):
                OptimOptions(max_evals=max_evals)

    def test_rejects_bad_seed_and_start_box(self):
        for seed in (-1, 1.5):
            with pytest.raises(InvalidArgumentError, match="seed"):
                OptimOptions(seed=seed)
        with pytest.raises(InvalidArgumentError, match="start_low"):
            OptimOptions(start_low=-np.inf)

    def test_accepts_numpy_integers(self):
        opts = OptimOptions(seed=np.int64(3), n_starts=np.int32(2), max_evals=np.int64(50))
        assert opts.n_starts == 2

    def test_roundtrip(self):
        opts = OptimOptions(seed=7, n_starts=3, tol=1e-6, max_evals=200)
        assert OptimOptions.from_dict(opts.to_dict()) == opts


class TestFitLevel:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(30)
        (X1, y1), _ = _nested_pair(rng)
        data = assemble([(X1, y1)])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        prior = PriorSpec(kind="reference")
        opts = OptimOptions(seed=123, n_starts=3)
        a = fit_level(data.levels[0], spec, prior, opts)
        b = fit_level(data.levels[0], spec, prior, opts)
        np.testing.assert_array_equal(a.phi, b.phi)
        assert a.objective_value == b.objective_value
        assert a.n_evals == b.n_evals
        assert a.start_values == b.start_values

    def test_estimate_maximizes_the_objective(self):
        rng = np.random.default_rng(31)
        (X1, y1), _ = _nested_pair(rng)
        data = assemble([(X1, y1)])
        lv = data.levels[0]
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        prior = PriorSpec(kind="reference")
        lf = fit_level(lv, spec, prior, OptimOptions(seed=0, n_starts=4))
        assert lf.objective_value == pytest.approx(
            objective(lv, lf.xi, spec, prior), rel=1e-12
        )
        # no start beat the reported maximum, and perturbations only hurt
        assert max(lf.start_values) == lf.objective_value
        for delta in (0.05, -0.05):
            for k in range(2):
                xi = lf.xi.copy()
                xi[k] += delta
                assert objective(lv, xi, spec, prior) <= lf.objective_value + 1e-9

    def test_minimum_degrees_of_freedom(self):
        rng = np.random.default_rng(32)
        X = rng.uniform(size=(2, 2))
        data = assemble([(X, rng.standard_normal(2))])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        with pytest.raises(InvalidArgumentError, match="n - q >= 2"):
            fit_level(data.levels[0], spec, PriorSpec(kind="flat"))

    def test_all_starts_failing_raises(self):
        rng = np.random.default_rng(33)
        X = rng.uniform(size=(8, 2))
        # identically zero outputs interpolate exactly at every phi
        data = assemble([(X, np.zeros(8))])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        with pytest.raises(EstimationError, match="starts failed"):
            fit_level(data.levels[0], spec, PriorSpec(kind="flat"), OptimOptions(n_starts=2))


class TestFit:
    def test_two_level_fit_recovers_scale_link(self):
        rng = np.random.default_rng(40)
        pair1, pair2 = _nested_pair(rng, gamma=1.6)
        data = assemble([pair1, pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        result = fit(data, spec, PriorSpec(kind="reference"), OptimOptions(seed=0, n_starts=4))
        assert result.s == 2
        assert result.level(1).gamma is None
        # the high level was built as 1.6 * low + smooth trend
        assert result.level(2).gamma == pytest.approx(1.6, abs=0.35)
        assert result.parameterization == "log_inverse_range_density"

    def test_plugin_method(self):
        rng = np.random.default_rng(41)
        pair1, pair2 = _nested_pair(rng)
        data = assemble([pair1, pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        result = fit(data, spec, PriorSpec(kind="flat"), OptimOptions(seed=0, n_starts=3), method=PLUGIN)
        assert result.method == PLUGIN
        lv = data.levels[0]
        lf = result.level(1)
        got = concentrated_restricted_likelihood(lv, RangeParams(lf.phi), spec)
        assert got == pytest.approx(lf.objective_value, rel=1e-12)

    def test_unknown_method_rejected(self):
        rng = np.random.default_rng(42)
        pair1, _ = _nested_pair(rng)
        data = assemble([pair1])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        with pytest.raises(InvalidArgumentError, match="method"):
            fit(data, spec, PriorSpec(kind="flat"), method="mcmc")

    def test_failure_report_names_level(self):
        rng = np.random.default_rng(43)
        X1 = rng.uniform(size=(10, 2))
        y1 = rng.standard_normal(10)
        X2 = X1[:6]
        data = assemble([(X1, y1), (X2, np.zeros(6))])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        with pytest.raises(EstimationError, match="level 2"):
            fit(data, spec, PriorSpec(kind="flat"), OptimOptions(n_starts=2))
