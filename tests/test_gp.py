"""Per-level GLS algebra and the integrated likelihood, checked against
direct dense-inverse computations."""

import math

import numpy as np
import pytest

from mfcokrig.exceptions import (
    DegenerateDataError,
    DesignRankError,
    InvalidArgumentError,
    SingularCorrelationError,
)
from mfcokrig.gp import (
    LevelData,
    constant_basis,
    gls_fit,
    integrated_log_likelihood,
    location_scale_estimates,
    tail_probe,
)
from mfcokrig.kernels import (
    MATERN,
    POWER_EXPONENTIAL,
    KernelSpec,
    RangeParams,
    corr_matrix,
)


def _toy_level(rng, n=12, d=2, index=1, with_lower=False):
    X = rng.uniform(0.0, 1.0, size=(n, d))
    y = np.sin(3.0 * X[:, 0]) + 0.5 * X[:, 1] ** 2 + 0.1 * rng.standard_normal(n)
    lower = rng.standard_normal(n) + 2.0 if with_lower else None
    return LevelData(
        index=index,
        inputs=X,
        outputs=y,
        basis=constant_basis(X),
        lower_output=lower,
        basis_fn=constant_basis,
    )


def _brute_pieces(data, params, spec):
    """Dense-inverse reference for every GLS quantity."""
    R = corr_matrix(data.inputs, params, spec)
    Rinv = np.linalg.inv(R)
    Xd = data.design
    y = data.outputs
    M = Xd.T @ Rinv @ Xd
    b = np.linalg.solve(M, Xd.T @ Rinv @ y)
    resid = y - Xd @ b
    S2 = float(resid @ Rinv @ resid)
    ldR = np.linalg.slogdet(R)[1]
    ldM = np.linalg.slogdet(M)[1]
    return b, S2, ldR, ldM


class TestLevelData:
    def test_properties(self):
        rng = np.random.default_rng(0)
        lv = _toy_level(rng, n=9, d=3, index=2, with_lower=True)
        assert lv.n == 9
        assert lv.dims == 3
        assert lv.p == 1
        assert lv.q == 2
        assert lv.design.shape == (9, 2)
        lv1 = _toy_level(rng, n=9, d=3)
        assert lv1.q == 1
        np.testing.assert_array_equal(lv1.design, lv1.basis)

    def test_validation(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(5, 2))
        y = rng.standard_normal(5)
        with pytest.raises(InvalidArgumentError):
            LevelData(index=1, inputs=X[0], outputs=y, basis=constant_basis(X))
        with pytest.raises(InvalidArgumentError):
            LevelData(index=1, inputs=X, outputs=y[:4], basis=constant_basis(X))
        bad = y.copy()
        bad[2] = np.nan
        with pytest.raises(InvalidArgumentError):
            LevelData(index=1, inputs=X, outputs=bad, basis=constant_basis(X))
        with pytest.raises(InvalidArgumentError):
            LevelData(index=1, inputs=X, outputs=y, basis=np.ones((4, 1)))

    def test_rank_deficient_design_rejected(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(6, 2))
        y = rng.standard_normal(6)
        # lower output proportional to the intercept column
        with pytest.raises(DesignRankError):
            LevelData(
                index=2,
                inputs=X,
                outputs=y,
                basis=constant_basis(X),
                lower_output=np.full(6, 3.0),
            )


class TestGlsFit:
    def test_matches_dense_inverse_reference(self):
        rng = np.random.default_rng(10)
        specs = [
            KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=2),
            KernelSpec(family=MATERN, shape=2.5, dims=2),
        ]
        for spec in specs:
            for with_lower in (False, True):
                lv = _toy_level(rng, index=2 if with_lower else 1, with_lower=with_lower)
                params = RangeParams(rng.uniform(0.3, 2.0, size=2))
                fact = gls_fit(lv, params, spec)
                b, S2, ldR, ldM = _brute_pieces(lv, params, spec)
                np.testing.assert_allclose(fact.b_hat, b, rtol=1e-9)
                assert fact.S2 == pytest.approx(S2, rel=1e-8)
                assert fact.logdet_R == pytest.approx(ldR, rel=1e-9, abs=1e-9)
                assert fact.logdet_M == pytest.approx(ldM, rel=1e-9, abs=1e-9)
                # whitened residual squared norm realizes the GLS quadratic
                assert float(fact.white_resid @ fact.white_resid) == pytest.approx(
                    fact.S2, rel=1e-12
                )

    def test_singular_correlation_raises(self):
        rng = np.random.default_rng(11)
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=2, nugget=0.0)
        lv = _toy_level(rng, n=10)
        with pytest.raises(SingularCorrelationError) as err:
            gls_fit(lv, RangeParams(np.array([1e8, 1e8])), spec)
        assert err.value.phi is not None


class TestIntegratedLogLikelihood:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(20)
        spec = KernelSpec(family=MATERN, shape=1.5, dims=2)
        for a_t in (1.0, 2.0):
            for with_lower in (False, True):
                lv = _toy_level(rng, index=2 if with_lower else 1, with_lower=with_lower)
                params = RangeParams(rng.uniform(0.3, 2.0, size=2))
                got = integrated_log_likelihood(lv, params, spec, a_t)
                _, S2, ldR, ldM = _brute_pieces(lv, params, spec)
                expo = 0.5 * (lv.n - lv.q) + a_t - 1.0
                want = -0.5 * ldR - 0.5 * ldM - expo * math.log(S2)
                assert got == pytest.approx(want, rel=1e-9)

    def test_reuses_factorization(self):
        rng = np.random.default_rng(21)
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        lv = _toy_level(rng)
        params = RangeParams(np.array([0.8, 0.6]))
        fact = gls_fit(lv, params, spec)
        a = integrated_log_likelihood(lv, params, spec, 1.0)
        b = integrated_log_likelihood(lv, params, spec, 1.0, fact=fact)
        assert a == b

    def test_rejects_nonpositive_exponent(self):
        rng = np.random.default_rng(22)
        lv = _toy_level(rng, n=3, d=2)
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        params = RangeParams(np.array([1.0, 1.0]))
        # n - q = 2 with a_t = 0 gives exponent 0
        with pytest.raises(InvalidArgumentError):
            integrated_log_likelihood(lv, params, spec, a_t=0.0)

    def test_degenerate_outputs_raise(self):
        rng = np.random.default_rng(23)
        X = rng.uniform(size=(8, 2))
        lv = LevelData(
            index=1, inputs=X, outputs=np.zeros(8), basis=constant_basis(X)
        )
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        with pytest.raises(DegenerateDataError):
            integrated_log_likelihood(lv, RangeParams(np.array([1.0, 1.0])), spec, 1.0)


    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_degeneracy_is_relative_to_the_output_scale(self, scale):
        """Constant outputs raise at any scale; constant outputs plus 1e-9
        relative noise give a finite likelihood at any scale."""
        rng = np.random.default_rng(24)
        X = rng.uniform(size=(20, 2))
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=2)
        params = RangeParams(np.array([0.9, 1.6]))
        constant = np.full(20, 3.7 * scale)
        noisy = constant + 1e-9 * scale * rng.standard_normal(20)
        for y, degenerate in ((constant, True), (noisy, False)):
            lv = LevelData(index=1, inputs=X, outputs=y, basis=constant_basis(X))
            if degenerate:
                with pytest.raises(DegenerateDataError):
                    integrated_log_likelihood(lv, params, spec, 1.0)
            else:
                assert math.isfinite(integrated_log_likelihood(lv, params, spec, 1.0))


class TestTailProbe:
    def test_grid_evaluation_with_nan_retreat(self):
        rng = np.random.default_rng(30)
        lv = _toy_level(rng, n=10)
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=2, nugget=0.0)
        grid = np.array([0.5, 1.0, 1e9])
        out = tail_probe(lv, spec, 1.0, grid)
        assert out.shape == (3,)
        assert np.isfinite(out[:2]).all()
        # the near-singular far tail yields nan, not an exception
        assert np.isnan(out[2])
        for i, g in enumerate(grid[:2]):
            want = integrated_log_likelihood(
                lv, RangeParams(np.array([g, g])), spec, 1.0
            )
            assert out[i] == want

    def test_ranges_whose_weights_overflow_give_nan(self):
        """Ranges below about 1e-162 are infeasible for power-exponential
        1.9; such a grid point is nan and the sweep goes on."""
        rng = np.random.default_rng(33)
        lv = _toy_level(rng, n=10)
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=2)
        grid = np.array([1e-200, 1e-3, 1.0])
        out = tail_probe(lv, spec, 1.0, grid)
        assert np.isnan(out[0])
        for i, g in enumerate(grid[1:], start=1):
            want = integrated_log_likelihood(
                lv, RangeParams(np.array([g, g])), spec, 1.0
            )
            assert out[i] == want

    def test_empty_grid(self):
        rng = np.random.default_rng(31)
        lv = _toy_level(rng)
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        out = tail_probe(lv, spec, 1.0, np.empty(0))
        assert out.shape == (0,)

    def test_invalid_grid(self):
        rng = np.random.default_rng(32)
        lv = _toy_level(rng)
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        with pytest.raises(InvalidArgumentError):
            tail_probe(lv, spec, 1.0, np.array([1.0, -2.0]))
        with pytest.raises(InvalidArgumentError):
            tail_probe(lv, spec, 1.0, np.array([np.inf]))


class TestLocationScaleEstimates:
    def test_variance_uses_posterior_mode_denominator(self):
        rng = np.random.default_rng(40)
        lv = _toy_level(rng, n=14)
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        fact = gls_fit(lv, RangeParams(np.array([0.7, 0.7])), spec)
        b, s2 = location_scale_estimates(fact, lv)
        np.testing.assert_array_equal(b, fact.b_hat)
        assert s2 == pytest.approx(fact.S2 / (lv.n - lv.q + 2.0), rel=1e-15)
        # returned coefficients are a copy, not a view
        b[0] += 1.0
        assert fact.b_hat[0] != b[0]
