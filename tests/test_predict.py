"""Recursive prediction and sequential sampling, checked against dense
linear-algebra references and each other."""

from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import stdtr
from scipy.stats import t as student_t

from mfcokrig.bench import borehole_high, borehole_low, lhs_design, scale_to_box
from mfcokrig.estimate import (
    MATCH_TOL,
    FitResult,
    LevelFit,
    OptimOptions,
    assemble,
    fit,
    match_rows,
)
from mfcokrig.exceptions import (
    DesignRankError,
    InvalidArgumentError,
    VarianceUndefinedError,
)
from mfcokrig.kernels import (
    MATERN,
    POWER_EXPONENTIAL,
    KernelSpec,
    RangeParams,
    corr_matrix,
    cross_corr,
)
from mfcokrig import predict as predict_module
from mfcokrig.predict import (
    MAX_REFINE,
    SERIES_MAX_DF,
    TAIL_MASS,
    CokrigingModel,
    _Quadrature,
    _quantiles,
    _Rules,
    _t_cdf,
    _t_tail,
)
from mfcokrig.priors import PriorSpec
from oracles import coincident_rows_loop, point_cdf, point_draws, two_ended_interval


def _nested_pair(rng, n1=15, n2=8, d=2, gamma=1.4):
    X1 = rng.uniform(0.0, 1.0, size=(n1, d))
    X2 = X1[rng.choice(n1, size=n2, replace=False)]
    f = lambda X: np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2
    y1 = f(X1) + 0.15 * rng.standard_normal(n1)
    idx = match_rows(X2, X1)
    y2 = gamma * y1[idx] + 0.4 * np.cos(4.0 * X2[:, 0]) - 0.2
    return (X1, y1), (X2, y2)


def _three_level_case(rng):
    X1 = rng.uniform(size=(18, 2))
    X2 = X1[:10]
    X3 = X2[:5]
    y1 = np.sin(2.0 * X1[:, 0]) + 0.2 * rng.standard_normal(18)
    y2 = 1.3 * y1[:10] + 0.3 * X2[:, 1] ** 2
    y3 = 0.8 * y2[:5] + 0.1 * np.cos(3.0 * X3[:, 0])
    data = assemble([(X1, y1), (X2, y2), (X3, y3)])
    spec = KernelSpec(family=MATERN, shape=1.5, dims=2)
    phis = [np.array([0.7, 0.7]), np.array([0.9, 0.6]), np.array([1.1, 0.8])]
    return data, spec, phis


def _manual_fit(data, spec, phis):
    """FitResult pinned at chosen ranges; the model refits GLS internally,
    so the remaining fields are placeholders."""
    fits = []
    for lv, phi in zip(data.levels, phis):
        params = RangeParams(np.asarray(phi, dtype=np.float64))
        fits.append(
            LevelFit(
                level=lv.index,
                phi=params.phi,
                xi=params.xi,
                objective_value=0.0,
                b_hat=np.zeros(lv.q),
                sigma2_hat=1.0,
                S2=1.0,
                converged=True,
                n_evals=0,
                best_start=0,
                n_failed_starts=0,
                start_values=(0.0,),
            )
        )
    return FitResult(
        levels=tuple(fits),
        method="posterior",
        prior=PriorSpec(kind="flat"),
        spec=spec,
        opts=OptimOptions(),
    )


def _dense_level(lv, phi, spec):
    """Explicit-inverse GLS pieces of one level."""
    R = corr_matrix(lv.inputs, RangeParams(phi), spec)
    Rinv = np.linalg.inv(R)
    X = lv.design
    M = X.T @ Rinv @ X
    Minv = np.linalg.inv(M)
    b = Minv @ X.T @ Rinv @ lv.outputs
    resid = lv.outputs - X @ b
    S2 = float(resid @ Rinv @ resid)
    return R, Rinv, X, M, Minv, b, resid, S2


def _dense_predict(data, spec, phis, x0):
    """Level-by-level reference: means, variances, and the kriging-only
    variances that drop the inherited lower-level uncertainty."""
    means, variances, krig_only = [], [], []
    y_prev = v_prev = None
    for lv, phi in zip(data.levels, phis):
        phi = np.asarray(phi, dtype=np.float64)
        R, Rinv, X, M, Minv, b, resid, S2 = _dense_level(lv, phi, spec)
        n, q = lv.n, lv.q
        df = n - q
        sigma2 = S2 / df
        r0 = cross_corr(lv.inputs, x0[None, :], RangeParams(phi), spec)[:, 0]
        h0 = np.ones(1)
        if lv.index == 1:
            f0 = h0
            mu = float(f0 @ b + r0 @ Rinv @ resid)
        else:
            f0 = np.concatenate([h0, [y_prev]])
            mu = float(h0 @ b[:-1] + b[-1] * y_prev + r0 @ Rinv @ resid)
        u0 = f0 - X.T @ Rinv @ r0
        c_base = (1.0 + spec.nugget) - float(r0 @ Rinv @ r0)
        c_k = c_base + float(u0 @ Minv @ u0)
        v_k = df / (df - 2.0) * sigma2 * c_k
        if lv.index == 1:
            v = v_k
        else:
            H = lv.basis
            Qh = Rinv - Rinv @ H @ np.linalg.inv(H.T @ Rinv @ H) @ H.T @ Rinv
            w = lv.lower_output
            inv_quad = 1.0 / float(w @ Qh @ w)
            gamma = float(b[-1])
            v = gamma**2 * v_prev + df / (df - 2.0) * sigma2 * (
                c_k + v_prev * inv_quad
            )
        means.append(mu)
        variances.append(v)
        krig_only.append(v_k)
        y_prev, v_prev = mu, v
    return np.array(means), np.array(variances), np.array(krig_only)


class TestPredictionAgainstDenseReference:
    def test_two_level_means_and_variances(self):
        rng = np.random.default_rng(100)
        pair1, pair2 = _nested_pair(rng)
        data = assemble([pair1, pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phis = [np.array([0.6, 0.9]), np.array([0.8, 0.5])]
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        X0 = rng.uniform(0.05, 0.95, size=(12, 2))
        pred = model.predict(X0)
        for i in range(X0.shape[0]):
            mu, v, _ = _dense_predict(data, spec, phis, X0[i])
            np.testing.assert_allclose(pred.means[i], mu, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(pred.variances[i], v, rtol=5e-7, atol=1e-12)

    def test_three_level_recursion(self):
        rng = np.random.default_rng(101)
        data, spec, phis = _three_level_case(rng)
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        X0 = rng.uniform(0.1, 0.9, size=(6, 2))
        pred = model.predict(X0)
        assert pred.means.shape == (6, 3)
        for i in range(6):
            mu, v, _ = _dense_predict(data, spec, phis, X0[i])
            np.testing.assert_allclose(pred.means[i], mu, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(pred.variances[i], v, rtol=5e-7, atol=1e-12)

    def test_single_query_and_batch_agree(self):
        rng = np.random.default_rng(102)
        pair1, pair2 = _nested_pair(rng)
        data = assemble([pair1, pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phis = [np.array([0.6, 0.9]), np.array([0.8, 0.5])]
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        X0 = rng.uniform(size=(5, 2))
        batch = model.predict(X0)
        for i in range(5):
            single = model.predict(X0[i])
            # batched and single-column triangular solves can differ by a few ulp
            np.testing.assert_allclose(single.means[0], batch.means[i], rtol=1e-10)
            np.testing.assert_allclose(
                single.variances[0], batch.variances[i], rtol=1e-10
            )
        # the interval models, intervals included.  A design row's scale
        # takes its closed form, so it does not depend on the other rows of
        # the solve either
        for model, X0 in _interval_cases():
            batch, bounds = model.predict(X0), model.credible_intervals(X0)
            sd = np.sqrt(batch.variances)
            for i in range(X0.shape[0]):
                single = model.predict(X0[i])
                np.testing.assert_allclose(single.means[0], batch.means[i], rtol=1e-10)
                np.testing.assert_allclose(single.variances[0], batch.variances[i], rtol=1e-10)
                gap = np.abs(model.credible_intervals(X0[i])[0] - bounds[i])
                assert np.all(gap <= 1e-8 * sd[i][:, None]), (i, gap)


class TestInterpolation:
    def test_exact_at_design_points_all_levels(self):
        rng = np.random.default_rng(110)
        pair1, pair2 = _nested_pair(rng)
        data = assemble([pair1, pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phis = [np.array([0.5, 0.8]), np.array([0.7, 0.6])]
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        # at shared design points, every level reproduces its own output
        X2, y2 = pair2
        X1, y1 = pair1
        idx = match_rows(X2, X1)
        pred = model.predict(X2)
        np.testing.assert_allclose(pred.means[:, 0], y1[idx], atol=1e-6)
        np.testing.assert_allclose(pred.means[:, 1], y2, atol=1e-6)
        assert np.all(pred.variances < 1e-8)
        assert pred.at_design.all()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n1=st.integers(8, 20),
        n2=st.integers(4, 8),
        kernel=st.sampled_from(
            [(MATERN, 0.5), (MATERN, 1.5), (MATERN, 2.5),
             (POWER_EXPONENTIAL, 1.0), (POWER_EXPONENTIAL, 1.9)]
        ),
        phis=st.lists(st.floats(0.05, 0.5), min_size=4, max_size=4),
    )
    def test_top_level_design_outputs_are_reproduced(self, seed, n1, n2, kernel, phis):
        """Whatever the data, kernel and ranges, the top-level mean at a
        top-level design point is that point's output; only the 1e-10
        nugget separates them, far below 1e-5 of the output scale."""
        pair1, (X2, y2) = _nested_pair(np.random.default_rng(seed), n1=n1, n2=n2)
        data = assemble([pair1, (X2, y2)])
        spec = KernelSpec(family=kernel[0], shape=kernel[1], dims=2)
        fit = _manual_fit(data, spec, [phis[:2], phis[2:]])
        pred = CokrigingModel(data, fit).predict(X2, mean_only=True)
        assert pred.at_design[:, 1].all()
        scale = 1.0 + np.max(np.abs(y2))
        np.testing.assert_allclose(pred.means[:, 1], y2, rtol=0.0, atol=1e-5 * scale)

    def test_low_level_only_points(self):
        rng = np.random.default_rng(111)
        pair1, pair2 = _nested_pair(rng)
        data = assemble([pair1, pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phis = [np.array([0.5, 0.8]), np.array([0.7, 0.6])]
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        X1, y1 = pair1
        X2, _ = pair2
        only_low = np.array(
            [x for x in X1 if not any(np.allclose(x, z, atol=1e-12) for z in X2)]
        )
        pred = model.predict(only_low)
        keep = match_rows(only_low, X1)
        np.testing.assert_allclose(pred.means[:, 0], y1[keep], atol=1e-6)
        assert np.all(pred.variances[:, 0] < 1e-8)
        assert pred.at_design[:, 0].all()
        assert not pred.at_design[:, 1].any()
        # the high level is genuinely uncertain there
        assert np.all(pred.variances[:, 1] > 1e-8)


    def test_at_design_matches_row_loop(self):
        rng = np.random.default_rng(112)
        data, spec, phis = _three_level_case(rng)
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        X1 = data.levels[0].inputs
        nudged = X1[:6].copy()
        nudged[:, 0] += np.array([1.0, -1.0, 1.0 + 1e-15, 1.0 - 1e-15, 2.0, 0.5]) * MATCH_TOL
        X0 = np.vstack([X1, nudged, rng.uniform(size=(10, 2))])
        pred = model.predict(X0)
        for t, lv in enumerate(data.levels):
            want = coincident_rows_loop(X0, lv.inputs, MATCH_TOL).any(axis=1)
            np.testing.assert_array_equal(pred.at_design[:, t], want)
        assert pred.at_design[:18, 0].all() and not pred.at_design[-10:].any()


class TestVarianceDominance:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        three=st.booleans(),
        family_shape=st.sampled_from(
            [(POWER_EXPONENTIAL, 1.9), (POWER_EXPONENTIAL, 1.0), (MATERN, 1.5), (MATERN, 2.5)]
        ),
        phis=st.lists(st.floats(0.1, 3.0), min_size=6, max_size=6),
    )
    def test_variance_floor_property(self, seed, three, family_shape, phis):
        """At random, design and lower-design queries, every level's
        variance is at least gamma_t^2 times the level below's (the
        single-level floor) and is never negative."""
        rng = np.random.default_rng(seed)
        if three:
            data, _, _ = _three_level_case(rng)
        else:
            data = assemble(list(_nested_pair(rng, gamma=rng.uniform(-2.0, 2.0))))
        spec = KernelSpec(family=family_shape[0], shape=family_shape[1], dims=2)
        ranges = [np.array(phis[2 * t:2 * t + 2]) for t in range(data.s)]
        model = CokrigingModel(data, _manual_fit(data, spec, ranges))
        X0 = np.vstack([rng.uniform(size=(10, 2))] + [lv.inputs[:3] for lv in data.levels])
        v = model.predict(X0).variances
        assert np.all(v >= 0.0)
        for t in range(1, data.s):
            assert np.all(v[:, t] >= model._states[t].gamma ** 2 * v[:, t - 1])

    def test_exceeds_kriging_only_variance_off_design(self):
        rng = np.random.default_rng(120)
        pair1, pair2 = _nested_pair(rng)
        data = assemble([pair1, pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phis = [np.array([0.6, 0.9]), np.array([0.8, 0.5])]
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        X0 = rng.uniform(0.02, 0.98, size=(50, 2))
        pred = model.predict(X0)
        for i in range(50):
            _, v, v_k = _dense_predict(data, spec, phis, X0[i])
            assert pred.variances[i, 1] >= v_k[1] - 1e-8
            # random points are off every design: dominance is strict
            assert pred.variances[i, 1] > v_k[1]
            np.testing.assert_allclose(pred.variances[i, 1], v[1], rtol=5e-7)

    def test_recursion_lower_bound(self):
        rng = np.random.default_rng(121)
        pair1, pair2 = _nested_pair(rng)
        data = assemble([pair1, pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phis = [np.array([0.6, 0.9]), np.array([0.8, 0.5])]
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        gamma = model._states[1].gamma
        X0 = rng.uniform(size=(40, 2))
        pred = model.predict(X0)
        assert np.all(pred.variances >= 0.0)
        assert np.all(
            pred.variances[:, 1] >= gamma**2 * pred.variances[:, 0] - 1e-15
        )


class TestSampling:
    def test_moments_match_closed_form(self):
        rng = np.random.default_rng(130)
        pair1, pair2 = _nested_pair(rng)
        data = assemble([pair1, pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phis = [np.array([0.6, 0.9]), np.array([0.8, 0.5])]
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        x0 = np.array([0.37, 0.58])
        pred = model.predict(x0)
        n_draws = 60000
        draws = model.sample_predictive(x0, n_draws, seed=2024)
        assert draws.shape == (n_draws, 2)
        for t in range(2):
            sample_mean = draws[:, t].mean()
            sample_var = draws[:, t].var(ddof=1)
            # Student-t tails: allow 6 empirical standard errors
            se_mean = draws[:, t].std(ddof=1) / np.sqrt(n_draws)
            m4 = np.mean((draws[:, t] - sample_mean) ** 4)
            se_var = np.sqrt(max(m4 - sample_var**2, 0.0) / n_draws)
            assert abs(sample_mean - pred.means[0, t]) < 6.0 * se_mean
            assert abs(sample_var - pred.variances[0, t]) < 6.0 * se_var

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(131)
        pair1, pair2 = _nested_pair(rng)
        data = assemble([pair1, pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phis = [np.array([0.6, 0.9]), np.array([0.8, 0.5])]
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        x0 = np.array([0.4, 0.4])
        a = model.sample_predictive(x0, 500, seed=9)
        b = model.sample_predictive(x0, 500, seed=9)
        np.testing.assert_array_equal(a, b)
        c = model.sample_predictive(x0, 500, seed=10)
        assert not np.array_equal(a, c)

    def test_draws_collapse_at_top_design_points(self):
        rng = np.random.default_rng(132)
        pair1, pair2 = _nested_pair(rng)
        data = assemble([pair1, pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phis = [np.array([0.5, 0.8]), np.array([0.7, 0.6])]
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        X2, y2 = pair2
        draws = model.sample_predictive(X2[3], 200, seed=5)
        assert draws[:, 1].std() < 1e-4
        assert abs(draws[:, 1].mean() - y2[3]) < 1e-4

    def test_validation(self):
        rng = np.random.default_rng(133)
        pair1, pair2 = _nested_pair(rng)
        data = assemble([pair1, pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phis = [np.array([0.6, 0.9]), np.array([0.8, 0.5])]
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        with pytest.raises(InvalidArgumentError):
            model.sample_predictive(np.zeros((2, 2)), 10)
        with pytest.raises(InvalidArgumentError):
            model.sample_predictive(np.zeros(2), 0)


class TestCredibleIntervals:
    def test_level_one_is_exact_student_t(self):
        rng = np.random.default_rng(140)
        pair1, _ = _nested_pair(rng)
        data = assemble([pair1])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phis = [np.array([0.6, 0.9])]
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        x0 = np.array([0.3, 0.7])
        lo, hi = model.credible_interval(x0, level=1, prob=0.9)
        pred = model.predict(x0)
        df = model.dfs[0]
        # back out the t-scale from the reported variance
        scale = np.sqrt(pred.variances[0, 0] * (df - 2.0) / df)
        want_lo = pred.means[0, 0] + scale * student_t.ppf(0.05, df)
        want_hi = pred.means[0, 0] + scale * student_t.ppf(0.95, df)
        assert lo == pytest.approx(want_lo, rel=1e-10)
        assert hi == pytest.approx(want_hi, rel=1e-10)

    @pytest.mark.parametrize("case", [0, 1], ids=["two_level", "three_level"])
    def test_higher_levels_match_sampled_quantiles(self, case):
        """Each bound lies within 4 standard errors of the empirical
        quantile of 1e6 joint draws: between the order statistics of rank
        ``n p -+ 4 sqrt(n p (1 - p))``."""
        model, X0 = _interval_cases()[case]
        n, tails = 1_000_000, np.array([0.025, 0.975])
        band = 4.0 * np.sqrt(n * tails * (1.0 - tails))
        ranks = np.stack([np.floor(n * tails - band), np.ceil(n * tails + band)]).astype(int)
        for i in (0, 12, X0.shape[0] - 1):
            bounds = model.credible_intervals(X0[i])[0]
            draws = model.sample_predictive(X0[i], n, seed=300 + i)
            for t in range(1, model.s):
                order = np.sort(draws[:, t])
                for k in range(2):
                    assert order[ranks[0, k]] <= bounds[t, k] <= order[ranks[1, k]]

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: m.sample_predictive(np.zeros(2), None),
            lambda m: m.sample_predictive(np.zeros(2), "abc"),
            lambda m: m.sample_predictive(np.zeros(2), 2.7),
            lambda m: m.sample_predictive(np.zeros(2), True),
            lambda m: m.sample_predictive(np.zeros(2), 10, seed=None),
            lambda m: m.sample_predictive(np.zeros(2), 10, seed="abc"),
            lambda m: m.sample_predictive(np.zeros(2), 10, seed=2.5),
            lambda m: m.sample_predictive(np.zeros(2), 10, seed=True),
            lambda m: m.sample_predictive(np.zeros(2), 10, seed=-1),
            lambda m: m.credible_interval(np.zeros(2), level=True),
            lambda m: m.credible_interval(np.zeros(2), level=1.0),
            lambda m: m.credible_interval(np.zeros(2), level="1"),
        ],
        ids=[
            "draws-none", "draws-str", "draws-float", "draws-bool",
            "seed-none", "seed-str", "seed-float", "seed-bool", "seed-negative",
            "level-bool", "level-float", "level-str",
        ],
    )
    def test_counts_and_levels_must_be_integers(self, call):
        rng = np.random.default_rng(144)
        pair1, pair2 = _nested_pair(rng)
        data = assemble([pair1, pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phis = [np.array([0.6, 0.9]), np.array([0.8, 0.5])]
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        with pytest.raises(InvalidArgumentError):
            call(model)

    def test_validation(self):
        rng = np.random.default_rng(142)
        pair1, _ = _nested_pair(rng)
        data = assemble([pair1])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        model = CokrigingModel(data, _manual_fit(data, spec, [np.array([0.6, 0.9])]))
        with pytest.raises(InvalidArgumentError):
            model.credible_interval(np.zeros(2), level=2)
        with pytest.raises(InvalidArgumentError):
            model.credible_interval(np.zeros(2), level=1, prob=1.0)
        with pytest.raises(InvalidArgumentError):
            model.credible_interval(np.zeros((2, 2)), level=1)
        for prob in (None, "0.9", True, 0.0, float("nan")):
            with pytest.raises(InvalidArgumentError):
                model.credible_intervals(np.zeros(2), prob=prob)
        with pytest.raises(InvalidArgumentError):
            model.credible_intervals(np.zeros((3, 5)))


def _interval_cases():
    """Two- and three-level models with queries at random points, at the
    top design and at bottom-only design points."""
    rng = np.random.default_rng(143)
    pair1, pair2 = _nested_pair(rng)
    data = assemble([pair1, pair2])
    spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
    phis = [np.array([0.6, 0.9]), np.array([0.8, 0.5])]
    two = CokrigingModel(data, _manual_fit(data, spec, phis))
    X0_two = np.vstack([rng.uniform(size=(12, 2)), pair2[0][:4], pair1[0][:4]])
    data, spec, phis = _three_level_case(rng)
    three = CokrigingModel(data, _manual_fit(data, spec, phis))
    X1 = data.levels[0].inputs
    X0_three = np.vstack([rng.uniform(size=(12, 2)), X1[:3], X1[7:9], X1[12:15]])
    return [(two, X0_two), (three, X0_three)]


def _oracle_pieces(model, X0):
    """The model's centred pieces ``(mu, Q0, yc)`` in the oracle's ``(mu, c0,
    c1)`` form: ``c0 = Q0 + q yc^2`` and ``c1 = -2 q yc``."""
    out = []
    for st, (mu, Q0, yc) in zip(model._states, model._pieces(X0)[0]):
        if yc is None:
            yc = np.zeros_like(Q0)
        out.append((mu, Q0 + st.minv_qq * yc**2, -2.0 * st.minv_qq * yc))
    return out


def _assert_tail_probabilities(model, X0, intervals, tails, rows, levels):
    """The quad oracle's probability below each bound is its tail to 1e-8."""
    pieces = _oracle_pieces(model, X0)
    for i in rows:
        row = [tuple(a[i] for a in pc) for pc in pieces]
        for t in levels:
            for k, tail in enumerate(tails):
                got = point_cdf(model, row, t, intervals[i, t - 1, k])
                assert abs(got - tail) <= 1e-8, (i, t, k, got)


def test_intervals_at_the_true_ranges_cover_95_percent():
    """Data drawn from the two-level model itself, with the model pinned at
    its true ranges: the 95% intervals hold the held-out truth 95% of the
    time at each level.  The points of one replicate are correlated, so the
    band is set from the spread of the replicates' coverages."""
    spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
    phis = [np.array([0.3, 0.6]), np.array([0.5, 0.4])]
    coverage = []
    for rep in range(400):
        rng = np.random.default_rng(rep)
        X1 = lhs_design(30, 2, rep + 1)
        X0 = rng.uniform(size=(20, 2))
        X = np.vstack([X1, X0])
        z1, z2 = (
            np.linalg.cholesky(corr_matrix(X, RangeParams(phi), spec)) @ rng.standard_normal(50)
            for phi in phis
        )
        y1 = 1.0 + z1
        y2 = 1.2 * y1 + 0.5 + 0.6 * z2
        data = assemble([(X1, y1[:30]), (X1[:12], y2[:12])])
        bounds = CokrigingModel(data, _manual_fit(data, spec, phis)).credible_intervals(X0)
        truth = np.column_stack([y1[30:], y2[30:]])
        coverage.append(np.mean((bounds[..., 0] <= truth) & (truth <= bounds[..., 1]), axis=0))
    coverage = np.array(coverage)
    se = coverage.std(axis=0, ddof=1) / np.sqrt(len(coverage))
    assert np.all(np.abs(coverage.mean(axis=0) - 0.95) <= 4.0 * se), (coverage.mean(axis=0), se)


class TestBatchedIntervals:
    @pytest.mark.parametrize("case", [0, 1], ids=["two_level", "three_level"])
    def test_agree_with_per_point_oracle(self, case):
        """Random, top-design and bottom-only design rows.  Both cases put
        innovation mass beyond the sign change of the event's leading
        coefficient, where its set is bounded."""
        model, X0 = _interval_cases()[case]
        got = model.credible_intervals(X0, prob=0.9)
        top = (0, 12, X0.shape[0] - 1) if case else range(X0.shape[0])
        _assert_tail_probabilities(model, X0, got, (0.05, 0.95), range(X0.shape[0]), [2])
        _assert_tail_probabilities(model, X0, got, (0.05, 0.95), top, range(3, model.s + 1))
        quad = _Quadrature(model._states, model._pieces(X0)[0], _Rules(model._states, 0))
        assert any(stdtr(df, -e) > TAIL_MASS for df, e in zip(quad.dfs, quad.e_star))
        tol = 1e-9 * np.abs(model.predict(X0).means)
        for i in (0, 13, X0.shape[0] - 1):
            draws = model.sample_predictive(X0[i], 300, seed=5 + i)
            assert np.all(np.abs(draws - point_draws(model, X0[i], 300, 5 + i)) <= tol[i])

    @pytest.mark.parametrize("case", [0, 1], ids=["two_level", "three_level"])
    def test_single_interval_is_the_batched_entry(self, case):
        model, X0 = _interval_cases()[case]
        for i in (0, 12, X0.shape[0] - 1):
            batched = model.credible_intervals(X0[i])
            for level in range(1, model.s + 1):
                single = model.credible_interval(X0[i], level)
                assert single == tuple(batched[0, level - 1])

    @pytest.mark.parametrize("case", [0, 1, 2], ids=["two_level", "three_level", "negative_link"])
    def test_blocks_do_not_change_the_bounds(self, monkeypatch, case):
        """One row per block and every row in one block give the default
        budget's bounds bit for bit: each row's sums do not depend on the
        other rows of its block."""
        model, X0 = _interval_cases()[case] if case < 2 else _negative_link_case()
        default = model.credible_intervals(X0)
        blocks = []
        quadrature = predict_module._Quadrature
        monkeypatch.setattr(
            predict_module, "_Quadrature",
            lambda states, pieces, rules: blocks.append(1) or quadrature(states, pieces, rules),
        )
        counts = {}
        for budget in (1, 1 << 60):
            monkeypatch.setattr(predict_module, "QUAD_BLOCK_BYTES", budget)
            blocks.clear()
            np.testing.assert_array_equal(model.credible_intervals(X0), default)
            counts[budget] = len(blocks)
        # a block per row and level, against one per level and refinement
        assert counts[1] >= (model.s - 1) * X0.shape[0], counts
        assert counts[1 << 60] <= (model.s - 1) * (MAX_REFINE + 1), counts

    @pytest.mark.parametrize("builder", ["_tanh_sinh", "_t_series", "_t_log_norm"])
    def test_rules_are_built_once_per_call(self, monkeypatch, builder):
        """The rules and the levels' Student-t series and normalisers
        depend only on the model, so every block of a call shares them:
        one row per block, and three times the rows, build as many."""
        model, X0 = _interval_cases()[0]
        monkeypatch.setattr(predict_module, "QUAD_BLOCK_BYTES", 1)
        builds = []
        build = getattr(predict_module, builder)
        monkeypatch.setattr(
            predict_module, builder, lambda arg: builds.append(arg) or build(arg)
        )
        counts = []
        for reps in (1, 3):
            builds.clear()
            model.credible_intervals(np.tile(X0, (reps, 1)))
            counts.append(len(builds))
        assert counts[0] == counts[1] > 0

    def test_negative_scale_link(self):
        """A fitted model whose level-two output falls as level one rises."""
        model, X0 = _negative_link_case()
        assert model._states[1].gamma < 0.0
        got = model.credible_intervals(X0)
        _assert_tail_probabilities(model, X0, got, (0.025, 0.975), range(X0.shape[0]), [2])

    @pytest.mark.parametrize(
        "case, prob",
        [(0, 0.95), (0, 0.9), (1, 0.95), (1, 0.9), (2, 0.95)],
        ids=["two_level-95", "two_level-90", "three_level-95", "three_level-90",
             "negative_link-95"],
    )
    def test_series_cdf_matches_stdtr(self, monkeypatch, case, prob):
        """The quadrature's series Student-t CDF moves no bound by more than
        1e-12 relative from the same solve on scipy's stdtr, and no moment
        at all."""
        model, X0 = _interval_cases()[case] if case < 2 else _negative_link_case()
        got, moments = model.credible_intervals(X0, prob), model.predict(X0)
        calls = []
        monkeypatch.setattr(
            predict_module, "_t_cdf",
            lambda df, x, coef=None: calls.append(df) or stdtr(df, x),
        )
        want = model.credible_intervals(X0, prob)
        assert calls and max(calls) <= SERIES_MAX_DF
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        again = model.predict(X0)
        for a, b in ((moments.means, again.means), (moments.variances, again.variances)):
            assert a.tobytes() == b.tobytes()


def _negative_link_case():
    """A fitted two-level model with a negative scale link, and queries at
    random points, at the top design and at bottom-only design points."""
    rng = np.random.default_rng(145)
    X1 = rng.uniform(size=(16, 2))
    X2 = X1[:9]
    y1 = np.sin(3.0 * X1[:, 0]) + X1[:, 1] ** 2 + 0.1 * rng.standard_normal(16)
    y2 = -1.3 * y1[:9] + 0.3 * np.cos(4.0 * X2[:, 0])
    data = assemble([(X1, y1), (X2, y2)])
    spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
    result = fit(data, spec, PriorSpec(kind="reference"),
                 OptimOptions(seed=3, n_starts=2, max_evals=200))
    return CokrigingModel(data, result), np.vstack(
        [rng.uniform(size=(8, 2)), X2[:3], X1[12:15]]
    )


# zeros, subnormals, small, large, overflowing-square and infinite
# arguments, and nan
_T_CDF_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-8, -1e-8,
                1e154, -1e154, 1e200, -1e200, np.finfo(np.float64).max,
                -np.finfo(np.float64).max, np.inf, -np.inf, np.nan]


def _t_cdf_reference(df, x):
    """scipy's stdtr, except at one degree of freedom: there scipy 1.17's
    stdtr is off by up to 1.6e-9 near zero (against mpmath), so the
    reference is the Cauchy CDF ``atan2(1, -x) / pi``."""
    return np.arctan2(1.0, -x) / np.pi if df == 1 else stdtr(df, x)


class TestSeriesStudentT:
    """``_t_cdf`` against scipy on either side of ``SERIES_MAX_DF``."""

    @staticmethod
    def _check(df, x):
        F = _t_cdf(df, x)
        assert F.shape == x.shape
        nan = np.isnan(x)
        assert np.array_equal(np.isnan(F), nan)
        x, F = x[~nan], F[~nan]
        err = np.abs(F - _t_cdf_reference(df, x))
        assert err.max() <= 1e-14, (df, x[err.argmax()], err.max())
        # odd to 2 ulp of 1
        assert np.all(np.abs(F + _t_cdf(df, -x) - 1.0) <= 2.0 * np.spacing(1.0))
        # non-decreasing to the absolute accuracy: at neighbouring floats
        # neither this series nor stdtr is exactly monotone
        order = np.argsort(x, kind="stable")
        assert np.all(np.diff(F[order]) >= -1e-14)
        assert np.all(F[x == -np.inf] == 0.0) and np.all(F[x == np.inf] == 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        df=st.integers(1, 2000) | st.sampled_from([1, 2, SERIES_MAX_DF, SERIES_MAX_DF + 1]),
        xs=st.lists(st.floats(width=64) | st.floats(-60.0, 60.0), min_size=1, max_size=40),
    )
    def test_matches_stdtr(self, df, xs):
        self._check(df, np.array(xs + _T_CDF_EDGES))

    def test_every_series_df_on_a_grid(self):
        """Every degrees of freedom the series serves, and the first that
        stdtr does, on a grid out to the far tails."""
        x = np.concatenate([np.linspace(-12.0, 12.0, 2401), np.geomspace(12.0, 1e6, 200),
                            -np.geomspace(12.0, 1e6, 200), _T_CDF_EDGES])
        for df in range(1, SERIES_MAX_DF + 2):
            self._check(df, x)


class TestTailMass:
    """``_t_tail`` against mpmath's regularised incomplete beta at 50
    digits, ``P(T < x) = I_{df/(df + x^2)}(df/2, 1/2) / 2`` for ``x < 0``."""

    @staticmethod
    def _mpmath_cdf(df, x):
        with mpmath.workdps(50):
            x = mpmath.mpf(x)
            lower = mpmath.betainc(df / 2, 0.5, 0, df / (df + x * x), regularized=True) / 2
            return float(lower if x < 0 else 1 - lower)

    @pytest.mark.parametrize("x", [1e-8, -1e-8, 1e-4, -1e-4, -3.0, -1e6])
    def test_one_degree_of_freedom_in_closed_form(self, x):
        """scipy's stdtr(1, x) is off by 1.6e-9 at x = 1e-8; the closed form
        keeps every digit, the lower tail to 1e-14 relative."""
        want = self._mpmath_cdf(1, x)
        got = float(_t_tail(1, x))
        assert abs(got - want) <= 1e-16 and abs(got - want) <= 1e-14 * want, (got, want)
        np.testing.assert_array_equal(_t_tail(1, np.array([x])), [got])

    def test_one_degree_of_freedom_across_the_lower_tail(self):
        x = -np.concatenate([[0.0, 5e-324], np.geomspace(1e-300, 1e300, 301)])
        want = np.array([self._mpmath_cdf(1, v) for v in x])
        err = np.abs(_t_tail(1, x) - want)
        assert err.max() <= 1e-16 and np.all(err <= 1e-14 * want), x[err.argmax()]

    def test_other_degrees_of_freedom_are_stdtr(self):
        x = np.array([-1e6, -3.0, -1e-4, 0.0, 2.0, -np.inf, np.inf])
        for df in (2, 3, 30, 1000):
            assert _t_tail(df, x).tobytes() == stdtr(df, x).tobytes()
        assert _t_tail(1, -np.inf) == 0.0 and _t_tail(1, np.inf) == 1.0


class TestQuadratureCases:
    """The quadrature CDF and its quantiles on synthetic two-level pieces,
    against the quad oracle."""

    @staticmethod
    def _state(n, q, sigma2, gamma=0.0, minv_qq=0.0):
        return SimpleNamespace(data=SimpleNamespace(n=n, q=q), df=n - q, sigma2_pred=sigma2,
                               gamma=gamma, minv_qq=minv_qq)

    @pytest.mark.parametrize(
        "gamma, minv_qq, Q0, yc, innovation",
        [
            # e_star = 3: 2.4% of the level-two innovation falls where the
            # event's set is bounded, and the innovation sum is used
            (1.2, 0.16, 0.01, 0.5, True),
            (-1.2, 0.16, 0.01, 0.5, True),
            # a design-like row: the conditional scale vanishes at yc
            (0.9, 0.05, 0.0, 0.0, True),
            # the conditional scale dominates: the sum runs over level one
            (0.3, 0.16, 0.01, 0.5, False),
            (-0.3, 0.16, 0.5, -1.0, False),
        ],
        ids=["bounded-sets", "negative-gamma", "design-like", "over-lower", "over-lower-neg"],
    )
    def test_cdf_and_quantiles_match_quad(self, gamma, minv_qq, Q0, yc, innovation):
        states = [self._state(11, 1, 1.0), self._state(8, 2, 1.0, gamma, minv_qq)]
        pieces = [(np.array([0.0]), np.array([1.0]), None),
                  (np.array([0.3]), np.array([Q0]), np.array([yc]))]
        quad_cdf = _Quadrature(states, pieces, _Rules(states, 0))
        assert bool(quad_cdf.over_lower[1][0]) is not innovation
        probs = np.array([0.001, 0.025, 0.3, 0.5, 0.975, 0.999])
        bounds = _quantiles(states, pieces, 1, probs, {})[0]
        # the sampler's form of the same row: c0 + c1 y + q y^2
        row = [(0.0, 1.0, 0.0), (0.3, Q0 + minv_qq * yc**2, -2.0 * minv_qq * yc)]
        model = SimpleNamespace(_states=states, s=2)
        r = np.zeros(1, dtype=int)
        for p, z in zip(probs, bounds):
            assert abs(point_cdf(model, row, 2, z) - p) <= 1e-9
            if p == 0.5:
                # the design-like median sits on the density's cusp
                continue
            _, f, _ = quad_cdf.cdf(1, np.array([z]), r)
            h = 1e-5 * quad_cdf.spread[1][0]
            Fp, _, _ = quad_cdf.cdf(1, np.array([z + h]), r)
            Fm, _, _ = quad_cdf.cdf(1, np.array([z - h]), r)
            assert f[0] == pytest.approx((Fp[0] - Fm[0]) / (2.0 * h), rel=1e-5)


@st.composite
def _synthetic_levels(draw):
    """Two or three levels of synthetic states and pieces for one to three
    query rows, and two offsets per row in units of the top spread: the
    scale link of either sign, a zero or positive ``Q0`` and any ``yc``."""
    rows = draw(st.integers(1, 3))

    def real(lo, hi):
        return st.floats(lo, hi, allow_nan=False, allow_infinity=False)

    def column(cell):
        return np.array(draw(st.lists(cell, min_size=rows, max_size=rows)))

    states, pieces = [], []
    for t in range(draw(st.integers(2, 3))):
        n, q = draw(st.integers(4, 60)), 1 + (t > 0)
        gamma = draw(st.sampled_from([-1.0, 1.0])) * draw(real(0.2, 2.0)) if t else 0.0
        states.append(SimpleNamespace(
            data=SimpleNamespace(n=n, q=q), df=n - q, sigma2_pred=draw(real(0.05, 4.0)),
            gamma=gamma, minv_qq=draw(real(0.005, 1.0)) if t else 0.0,
        ))
        pieces.append((
            column(real(-1.0, 1.0)),
            column(st.just(0.0) | real(0.0, 2.0)),
            column(real(-2.0, 2.0)) if t else None,
        ))
    offsets = np.array(draw(st.lists(real(-5.0, 5.0), min_size=2 * rows, max_size=2 * rows)))
    return states, pieces, offsets


class TestCentralRuleInterval:
    @settings(max_examples=150, deadline=None)
    @given(case=_synthetic_levels())
    def test_one_end_per_node_matches_the_two_ended_oracle(self, case):
        """On the central rule the interval probability, its derivative and
        its error estimate are the floats of the two-ended difference, from
        one lower-CDF call at one end per node, with the block's rows
        broadcast rather than gathered."""
        states, pieces, offsets = case
        quad = _Quadrature(states, pieces, _Rules(states, 0))
        r = np.repeat(np.arange(pieces[0][0].size), 2)
        for t in range(1, len(states)):
            z = quad.loc[t][r] + quad.spread[t][r] * offsets
            b = z[:, None] - (quad.mu[t] + states[t].gamma * quad.yc[t])[r][:, None]
            e = quad.mid_rules[t][0]
            want = two_ended_interval(quad, t, b, e, r)
            calls = []
            cdf = quad.cdf
            quad.cdf = lambda lv, at, rows: calls.append((lv, at.shape)) or cdf(lv, at, rows)
            got = quad._interval(t, b, e, r)
            del quad.cdf
            assert calls[0] == (t - 1, (r.size, e.size))
            for a, w in zip(got, want):
                assert a.shape == w.shape and a.tobytes() == w.tobytes()


class TestModelConstruction:
    def test_type_and_shape_validation(self):
        rng = np.random.default_rng(150)
        pair1, pair2 = _nested_pair(rng)
        data = assemble([pair1, pair2])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        fitres = _manual_fit(data, spec, [np.array([0.6, 0.9]), np.array([0.8, 0.5])])
        with pytest.raises(InvalidArgumentError):
            CokrigingModel("data", fitres)
        with pytest.raises(InvalidArgumentError):
            CokrigingModel(data, "fit")
        short = FitResult(
            levels=fitres.levels[:1],
            method=fitres.method,
            prior=fitres.prior,
            spec=spec,
            opts=fitres.opts,
        )
        with pytest.raises(InvalidArgumentError):
            CokrigingModel(data, short)

    def test_variance_needs_enough_degrees_of_freedom(self):
        rng = np.random.default_rng(151)
        X1 = rng.uniform(size=(9, 2))
        y1 = rng.standard_normal(9)
        X2 = X1[:4]
        y2 = 1.2 * y1[:4] + 0.1 * rng.standard_normal(4)
        data = assemble([(X1, y1), (X2, y2)])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        # level 2 has n - q = 2: means fine, variances undefined
        model = CokrigingModel(
            data, _manual_fit(data, spec, [np.array([0.7, 0.7]), np.array([0.7, 0.7])])
        )
        x0 = np.array([0.5, 0.5])
        pred = model.predict(x0, mean_only=True)
        assert pred.variances is None
        with pytest.raises(VarianceUndefinedError):
            model.predict(x0)

    def test_query_validation(self):
        rng = np.random.default_rng(152)
        pair1, _ = _nested_pair(rng)
        data = assemble([pair1])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        model = CokrigingModel(data, _manual_fit(data, spec, [np.array([0.6, 0.9])]))
        with pytest.raises(InvalidArgumentError):
            model.predict(np.zeros((3, 5)))
        with pytest.raises(InvalidArgumentError):
            model.predict(np.array([[0.1, np.inf]]))
        # only a bool selects means only; "False" would be truthy
        for flag in ("False", "", 0, 1, None):
            with pytest.raises(InvalidArgumentError, match="mean_only"):
                model.predict(np.zeros((1, 2)), mean_only=flag)
        assert model.predict(np.zeros((1, 2)), mean_only=np.True_).variances is None


_ARRAY_CALLS = {
    "assemble-inputs": (lambda m, pair, v: assemble([(v, pair[1])]), "level 1 inputs"),
    "assemble-outputs": (lambda m, pair, v: assemble([(pair[0], v)]), "level 1 outputs"),
    "assemble-level": (lambda m, pair, v: assemble([v]), "level 1"),
    "predict": (lambda m, pair, v: m.predict(v), "queries"),
    "credible_intervals": (lambda m, pair, v: m.credible_intervals(v), "queries"),
    "credible_interval": (lambda m, pair, v: m.credible_interval(v, level=1), "queries"),
    "sample_predictive": (lambda m, pair, v: m.sample_predictive(v, 10), "queries"),
}
_BAD_ARRAYS = {
    "strings": [["a", "b"]],
    "ragged": [[0.1, 0.2], [0.3]],
    "dict": {"a": 0.1, "b": 0.2},
    "complex": np.array([[0.1 + 0.5j, 0.2]]),
    "empty": np.empty((0, 2)),
    "not-a-pair": (np.zeros((4, 2)),),
}


@pytest.mark.parametrize(
    "call, value",
    [(c, v) for c in _ARRAY_CALLS if c != "assemble-level"
     for v in ("strings", "ragged", "dict", "complex")]
    + [(c, "empty") for c, (_, name) in _ARRAY_CALLS.items() if name == "queries"]
    + [("assemble-level", "not-a-pair")],
)
def test_array_arguments_raise_typed_errors_naming_the_argument(call, value):
    """Array arguments that are not rectangular arrays of real numbers, and
    empty query sets, raise InvalidArgumentError naming the argument."""
    rng = np.random.default_rng(153)
    pair1, pair2 = _nested_pair(rng)
    data = assemble([pair1, pair2])
    spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
    model = CokrigingModel(
        data, _manual_fit(data, spec, [np.array([0.6, 0.9]), np.array([0.8, 0.5])])
    )
    fn, name = _ARRAY_CALLS[call]
    with pytest.raises(InvalidArgumentError, match=name):
        fn(model, pair1, _BAD_ARRAYS[value])


class TestScaleLink:
    @staticmethod
    def _borehole_model(scale, y_low=None):
        """Two-level borehole model with outputs times ``scale``, pinned at
        unit ranges."""
        U = lhs_design(30, 8, seed=4)
        X = scale_to_box(U)
        if y_low is None:
            y_low = scale * np.array([borehole_low(x) for x in X])
        y_high = scale * np.array([borehole_high(x) for x in X[:12]])
        data = assemble([(U, y_low), (U[:12], y_high)])
        spec = KernelSpec(family="power_exponential", shape=1.9, dims=8)
        phis = [np.ones(8), np.ones(8)]
        return CokrigingModel(data, _manual_fit(data, spec, phis)), U

    def test_identifiability_check_is_free_of_units(self):
        base, U = self._borehole_model(1.0)
        reference = base.predict(U[25:28])
        for scale in (1e-8, 1e-9, 1e-10):
            model, _ = self._borehole_model(scale)
            pred = model.predict(U[25:28])
            np.testing.assert_allclose(pred.means / scale, reference.means, rtol=1e-12)
            np.testing.assert_allclose(
                pred.variances / scale**2, reference.variances, rtol=1e-9
            )

    def test_collinear_lower_output_still_raises(self):
        rng = np.random.default_rng(160)
        y_low = 1.0 + 1e-9 * rng.standard_normal(30)
        with pytest.raises(DesignRankError, match="collinear"):
            self._borehole_model(1.0, y_low=y_low)

    def test_term_matches_dense_inverse(self):
        rng = np.random.default_rng(161)
        data, spec, phis = _three_level_case(rng)
        model = CokrigingModel(data, _manual_fit(data, spec, phis))
        for st, lv, phi in zip(model._states, data.levels, phis):
            Minv = _dense_level(lv, phi, spec)[4]
            assert abs(st.minv_qq - Minv[-1, -1]) <= 1e-12 * abs(Minv[-1, -1])
