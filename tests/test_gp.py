"""Per-level GLS algebra and the log-likelihood of the ranges, checked
against direct dense-inverse computations."""

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
    log_likelihood,
    log_S2_exponent,
)
from mfcokrig.kernels import (
    MATERN,
    POWER_EXPONENTIAL,
    KernelSpec,
    RangeParams,
    Workspace,
    corr_matrix,
    corr_matrix_with_derivs,
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

    @pytest.mark.parametrize("family, shape", [
        (POWER_EXPONENTIAL, 1.9), (MATERN, 0.5), (MATERN, 1.5), (MATERN, 2.5)])
    def test_the_workspace_decides_the_derivative_build(self, family, shape):
        """On a derivative workspace ``gls_fit``'s one build leaves the
        stack ``corr_matrix_with_derivs`` gives, bit for bit; on a
        gradient-only workspace there is none."""
        rng = np.random.default_rng(12)
        spec = KernelSpec(family=family, shape=shape, dims=2)
        lv = _toy_level(rng, with_lower=True, index=2)
        params = RangeParams(rng.uniform(0.3, 2.0, size=2))
        ws = Workspace(lv.inputs, spec, derivs=True)
        fact = gls_fit(lv, params, spec, ws=ws)
        assert fact.ws is ws
        R, dR = corr_matrix_with_derivs(lv.inputs, params, spec)
        np.testing.assert_array_equal(ws.dR, dR)
        np.testing.assert_array_equal(fact.chol_R, gls_fit(lv, params, spec).chol_R)
        ws = Workspace(lv.inputs, spec, grad=True)
        gls_fit(lv, params, spec, ws=ws)
        assert ws.dR is None
        np.testing.assert_array_equal(ws.pairs[ws.index].reshape(R.shape), R)


def _integrated(lv, params, spec, a_t):
    """``log_likelihood`` with the integrated likelihood's exponent, on a
    fresh ``gls_fit`` factorization."""
    return log_likelihood(lv, gls_fit(lv, params, spec), log_S2_exponent(lv, a_t))


class TestLogLikelihood:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(20)
        spec = KernelSpec(family=MATERN, shape=1.5, dims=2)
        for a_t in (1.0, 2.0):
            for with_lower in (False, True):
                lv = _toy_level(rng, index=2 if with_lower else 1, with_lower=with_lower)
                params = RangeParams(rng.uniform(0.3, 2.0, size=2))
                got = _integrated(lv, params, spec, a_t)
                _, S2, ldR, ldM = _brute_pieces(lv, params, spec)
                expo = 0.5 * (lv.n - lv.q) + a_t - 1.0
                want = -0.5 * ldR - 0.5 * ldM - expo * math.log(S2)
                assert got == pytest.approx(want, rel=1e-9)

    def test_unprojected_form_matches_closed_form(self):
        """Not ``projected``, with the exponent ``(n-q)/2``, it is the
        plug-in criterion ``-1/2 log|R| - ((n-q)/2) log S2``."""
        rng = np.random.default_rng(25)
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=2)
        for with_lower in (False, True):
            lv = _toy_level(rng, index=2 if with_lower else 1, with_lower=with_lower)
            params = RangeParams(rng.uniform(0.3, 2.0, size=2))
            expo = 0.5 * (lv.n - lv.q)
            got = log_likelihood(lv, gls_fit(lv, params, spec), expo, projected=False)
            _, S2, ldR, _ = _brute_pieces(lv, params, spec)
            assert got == pytest.approx(-0.5 * ldR - expo * math.log(S2), rel=1e-9)

    def test_reuses_factorization(self):
        """A factorization built in a workspace gives the value of a fresh
        one, bit for bit."""
        rng = np.random.default_rng(21)
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        lv = _toy_level(rng)
        params = RangeParams(np.array([0.8, 0.6]))
        fact = gls_fit(lv, params, spec, ws=Workspace(lv.inputs, spec))
        a = _integrated(lv, params, spec, 1.0)
        b = log_likelihood(lv, fact, log_S2_exponent(lv, 1.0))
        assert a == b

    def test_rejects_nonpositive_exponent(self):
        rng = np.random.default_rng(22)
        lv = _toy_level(rng, n=3, d=2)
        # n - q = 2 with a_t = 0 gives exponent 0
        with pytest.raises(InvalidArgumentError):
            log_S2_exponent(lv, a_t=0.0)

    def test_degenerate_outputs_raise(self):
        rng = np.random.default_rng(23)
        X = rng.uniform(size=(8, 2))
        lv = LevelData(
            index=1, inputs=X, outputs=np.zeros(8), basis=constant_basis(X)
        )
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        with pytest.raises(DegenerateDataError):
            _integrated(lv, RangeParams(np.array([1.0, 1.0])), spec, 1.0)


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
                    _integrated(lv, params, spec, 1.0)
            else:
                assert math.isfinite(_integrated(lv, params, spec, 1.0))
