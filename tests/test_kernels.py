"""Correlation families: closed-form values, derivative identities, and
agreement with the entry-by-entry product-form oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfcokrig.exceptions import InvalidArgumentError
from mfcokrig.kernels import (
    DEFAULT_NUGGET,
    MATERN,
    POWER_EXPONENTIAL,
    KernelSpec,
    RangeParams,
    corr1d,
    corr_matrix,
    corr_matrix_deriv,
    corr_matrix_with_derivs,
    cross_corr,
    distance_stack,
)
from oracles import corr_matrix_loop, corr_matrix_with_derivs_loop, cross_corr_loop

# independently computed closed-form values at h = phi
EXP_MINUS_1 = 0.36787944117144233
MATERN32_AT_RANGE = 0.4833577245965077
MATERN52_AT_RANGE = 0.5239941088318203


def _specs(dims=1, nugget=DEFAULT_NUGGET):
    return [
        KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=dims, nugget=nugget),
        KernelSpec(family=POWER_EXPONENTIAL, shape=1.0, dims=dims, nugget=nugget),
        KernelSpec(family=MATERN, shape=0.5, dims=dims, nugget=nugget),
        KernelSpec(family=MATERN, shape=1.5, dims=dims, nugget=nugget),
        KernelSpec(family=MATERN, shape=2.5, dims=dims, nugget=nugget),
    ]


class TestCorr1d:
    def test_known_values_at_unit_scaled_distance(self):
        """r(phi; phi) has a closed form for every family."""
        phi = 0.73
        cases = [
            (KernelSpec(family=POWER_EXPONENTIAL, shape=1.9), EXP_MINUS_1),
            (KernelSpec(family=POWER_EXPONENTIAL, shape=1.0), EXP_MINUS_1),
            (KernelSpec(family=MATERN, shape=0.5), EXP_MINUS_1),
            (KernelSpec(family=MATERN, shape=1.5), MATERN32_AT_RANGE),
            (KernelSpec(family=MATERN, shape=2.5), MATERN52_AT_RANGE),
        ]
        for spec, expected in cases:
            assert corr1d(phi, phi, spec) == pytest.approx(expected, rel=1e-14)

    def test_zero_distance_is_one(self):
        for spec in _specs():
            assert corr1d(0.0, 0.4, spec) == 1.0

    def test_decreasing_in_distance(self):
        rng = np.random.default_rng(11)
        for spec in _specs():
            for _ in range(20):
                phi = rng.uniform(0.1, 5.0)
                h = np.sort(rng.uniform(0.0, 10.0, size=30))
                r = corr1d(h, phi, spec)
                assert np.all(np.diff(r) <= 0.0)
                # extreme h/phi ratios may underflow to exactly zero
                assert np.all(r >= 0.0) and np.all(r <= 1.0)

    def test_increasing_in_range(self):
        rng = np.random.default_rng(12)
        for spec in _specs():
            for _ in range(20):
                h = rng.uniform(0.05, 4.0)
                phis = np.sort(rng.uniform(0.05, 8.0, size=10))
                r = np.array([corr1d(h, p, spec) for p in phis])
                assert np.all(np.diff(r) >= 0.0)

    def test_rejects_bad_arguments(self):
        spec = KernelSpec(family=MATERN, shape=2.5)
        with pytest.raises(InvalidArgumentError):
            corr1d(-0.1, 1.0, spec)
        with pytest.raises(InvalidArgumentError):
            corr1d(np.nan, 1.0, spec)
        with pytest.raises(InvalidArgumentError):
            corr1d(1.0, 0.0, spec)
        with pytest.raises(InvalidArgumentError):
            corr1d(1.0, -2.0, spec)


class TestKernelSpec:
    def test_defaults_per_family(self):
        assert KernelSpec(family=POWER_EXPONENTIAL).shape == 1.9
        assert KernelSpec(family=MATERN).shape == 2.5
        assert KernelSpec(family=MATERN).nugget == DEFAULT_NUGGET

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            KernelSpec(family="gaussian")
        with pytest.raises(InvalidArgumentError):
            KernelSpec(family=POWER_EXPONENTIAL, shape=2.0)
        with pytest.raises(InvalidArgumentError):
            KernelSpec(family=POWER_EXPONENTIAL, shape=0.0)
        with pytest.raises(InvalidArgumentError):
            KernelSpec(family=MATERN, shape=2.0)
        with pytest.raises(InvalidArgumentError):
            KernelSpec(family=MATERN, dims=0)
        with pytest.raises(InvalidArgumentError):
            KernelSpec(family=MATERN, nugget=2e-4)
        with pytest.raises(InvalidArgumentError):
            KernelSpec(family=MATERN, nugget=-1e-12)

    def test_roundtrip(self):
        spec = KernelSpec(family=MATERN, shape=1.5, dims=3, nugget=1e-8)
        assert KernelSpec.from_dict(spec.to_dict()) == spec


class TestRangeParams:
    def test_xi_bijection(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            phi = rng.uniform(0.01, 100.0, size=rng.integers(1, 6))
            params = RangeParams(phi)
            back = RangeParams.from_xi(params.xi)
            np.testing.assert_allclose(back.phi, phi, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            RangeParams(np.array([1.0, 0.0]))
        with pytest.raises(InvalidArgumentError):
            RangeParams(np.array([np.inf]))
        with pytest.raises(InvalidArgumentError):
            RangeParams(np.array([[1.0], [2.0]]))

    def test_phi_is_read_only(self):
        params = RangeParams(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            params.phi[0] = 3.0


class TestCorrMatrix:
    def test_matches_product_of_univariate_correlations(self):
        """R[i,j] is the product over dimensions of corr1d values."""
        rng = np.random.default_rng(21)
        for spec in _specs(dims=3):
            X = rng.uniform(0.0, 1.0, size=(7, 3))
            phi = rng.uniform(0.2, 2.0, size=3)
            R = corr_matrix(X, RangeParams(phi), spec)
            for i in range(7):
                for j in range(7):
                    if i == j:
                        assert R[i, j] == 1.0 + spec.nugget
                        continue
                    expected = 1.0
                    for k in range(3):
                        expected *= corr1d(abs(X[i, k] - X[j, k]), phi[k], spec)
                    assert R[i, j] == pytest.approx(expected, rel=1e-14)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(22)
        for spec in _specs(dims=2, nugget=1e-8):
            X = rng.uniform(0.0, 1.0, size=(20, 2))
            R = corr_matrix(X, RangeParams(np.array([0.5, 1.0])), spec)
            np.testing.assert_array_equal(R, R.T)
            np.linalg.cholesky(R)

    def test_cross_corr_has_no_nugget(self):
        rng = np.random.default_rng(23)
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2, nugget=1e-5)
        X = rng.uniform(0.0, 1.0, size=(6, 2))
        params = RangeParams(np.array([0.7, 0.9]))
        C = cross_corr(X, X, params, spec)
        np.testing.assert_array_equal(np.diag(C), np.ones(6))
        R = corr_matrix(X, params, spec)
        np.testing.assert_allclose(R - np.diag(np.full(6, spec.nugget)), C, atol=1e-15)

    def test_rejects_dimension_mismatch(self):
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        X = np.zeros((3, 2))
        with pytest.raises(InvalidArgumentError):
            corr_matrix(np.zeros((3, 4)), RangeParams(np.array([1.0, 1.0])), spec)
        with pytest.raises(InvalidArgumentError):
            corr_matrix(X, RangeParams(np.array([1.0, 1.0, 1.0])), spec)


class TestDerivatives:
    def test_matches_central_finite_differences(self):
        """Analytic dR/dphi_k agrees with a second-order difference."""
        rng = np.random.default_rng(31)
        for spec in _specs(dims=2):
            X = rng.uniform(0.0, 1.0, size=(6, 2))
            phi = rng.uniform(0.3, 2.0, size=2)
            _, dR = corr_matrix_with_derivs(X, RangeParams(phi), spec)
            for k in range(2):
                step = 1e-6 * phi[k]
                hi = phi.copy()
                lo = phi.copy()
                hi[k] += step
                lo[k] -= step
                fd = (
                    corr_matrix(X, RangeParams(hi), spec)
                    - corr_matrix(X, RangeParams(lo), spec)
                ) / (2.0 * step)
                np.testing.assert_allclose(dR[k], fd, rtol=5e-7, atol=1e-10)

    def test_diagonal_is_zero(self):
        rng = np.random.default_rng(32)
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=3)
        X = rng.uniform(0.0, 1.0, size=(5, 3))
        _, dR = corr_matrix_with_derivs(X, RangeParams(np.array([1.0, 2.0, 0.5])), spec)
        for k in range(3):
            np.testing.assert_array_equal(np.diag(dR[k]), np.zeros(5))

    def test_underflowed_correlation_has_zero_derivative(self):
        # distances huge relative to phi drive r to exactly 0; the ratio
        # formula would overflow there, so the derivative must be 0, not nan
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=1)
        X = np.array([[0.0], [500.0]])
        params = RangeParams(np.array([1e-3]))
        R, dR = corr_matrix_with_derivs(X, params, spec)
        assert R[0, 1] == 0.0
        assert dR[0][0, 1] == 0.0
        assert np.all(np.isfinite(dR))

    def test_single_derivative_accessor(self):
        rng = np.random.default_rng(33)
        spec = KernelSpec(family=MATERN, shape=1.5, dims=2)
        X = rng.uniform(0.0, 1.0, size=(5, 2))
        params = RangeParams(np.array([0.4, 1.3]))
        _, dR = corr_matrix_with_derivs(X, params, spec)
        for k in range(2):
            np.testing.assert_array_equal(corr_matrix_deriv(X, params, spec, k), dR[k])
        with pytest.raises(InvalidArgumentError):
            corr_matrix_deriv(X, params, spec, 2)
        with pytest.raises(InvalidArgumentError):
            corr_matrix_deriv(X, params, spec, -1)


class TestOracleAgreement:
    """The stack assembly (one weighted exponent sum, one exp) agrees with
    the entry-by-entry product of 1-d correlations to a few ulp."""

    def test_corr_matrix(self):
        rng = np.random.default_rng(41)
        for spec in _specs(dims=3):
            X = rng.uniform(0.0, 1.0, size=(12, 3))
            phi = rng.uniform(0.2, 3.0, size=3)
            np.testing.assert_allclose(
                corr_matrix(X, RangeParams(phi), spec),
                corr_matrix_loop(X, phi, spec),
                rtol=1e-14,
                atol=0.0,
            )

    def test_cross_corr(self):
        rng = np.random.default_rng(42)
        for spec in _specs(dims=2):
            X1 = rng.uniform(0.0, 1.0, size=(8, 2))
            X2 = rng.uniform(0.0, 1.0, size=(5, 2))
            phi = rng.uniform(0.2, 3.0, size=2)
            np.testing.assert_allclose(
                cross_corr(X1, X2, RangeParams(phi), spec),
                cross_corr_loop(X1, X2, phi, spec),
                rtol=1e-14,
                atol=0.0,
            )

    def test_derivatives(self):
        rng = np.random.default_rng(43)
        for spec in _specs(dims=2):
            X = rng.uniform(0.0, 1.0, size=(9, 2))
            phi = rng.uniform(0.2, 3.0, size=2)
            R, dR = corr_matrix_with_derivs(X, RangeParams(phi), spec)
            R_or, dR_or = corr_matrix_with_derivs_loop(X, phi, spec)
            np.testing.assert_allclose(R, R_or, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(dR, dR_or, rtol=1e-13, atol=1e-15)

    def test_reused_stack_gives_identical_matrices(self):
        rng = np.random.default_rng(44)
        for spec in _specs(dims=3):
            X = rng.uniform(0.0, 1.0, size=(10, 3))
            params = RangeParams(rng.uniform(0.2, 3.0, size=3))
            stack = distance_stack(X, spec)
            np.testing.assert_array_equal(
                corr_matrix(X, params, spec, stack=stack), corr_matrix(X, params, spec)
            )
            R, dR = corr_matrix_with_derivs(X, params, spec, stack=stack)
            np.testing.assert_array_equal(R, corr_matrix(X, params, spec))
            np.testing.assert_array_equal(dR, corr_matrix_with_derivs(X, params, spec)[1])
        with pytest.raises(InvalidArgumentError):
            corr_matrix(X, params, spec, stack=np.zeros((2, 10, 10)))

    def test_cross_corr_blocks_match_one_shot(self):
        # a query batch larger than one block is assembled in column blocks
        rng = np.random.default_rng(45)
        spec = KernelSpec(family=MATERN, shape=2.5, dims=8)
        X1 = rng.uniform(0.0, 1.0, size=(80, 8))
        X2 = rng.uniform(0.0, 1.0, size=(700, 8))
        params = RangeParams(rng.uniform(0.2, 3.0, size=8))
        C = cross_corr(X1, X2, params, spec)
        for j in (0, 203, 204, 699):
            np.testing.assert_array_equal(C[:, j : j + 1], cross_corr(X1, X2[j : j + 1], params, spec))


# Each of the d exponent terms, and their sum, carries a few ulp of relative
# error on either side, so exp(-S) differs from the product of the 1-d
# correlations by a few ulp of the exponent S itself (plus a few ulp for the
# products); the ratio (dr/dphi)/r adds a few ulp more to the derivatives.
ULP = np.finfo(np.float64).eps


def _exponent(X1, X2, phi, spec):
    """Total exponent S[i, j] of the product-form correlation."""
    H = np.abs(X1[:, None, :] - X2[None, :, :])
    if spec.family == POWER_EXPONENTIAL:
        return np.sum((H / phi) ** spec.shape, axis=2)
    return np.sum(math.sqrt(2.0 * spec.shape) * H / phi, axis=2)


# below the smallest normal float, precision is absolute rather than relative
TINY = np.finfo(np.float64).tiny


def _assert_close_in_exponent(got, want, S, d, extra_ulp=0.0):
    tol = ULP * (4.0 * (d + 2) * (1.0 + S) + extra_ulp)
    assert np.all(np.abs(got - want) <= tol * np.abs(want) + TINY)


_SPEC_CHOICES = [
    (POWER_EXPONENTIAL, 1.9),
    (POWER_EXPONENTIAL, 1.0),
    (POWER_EXPONENTIAL, 0.5),
    (MATERN, 0.5),
    (MATERN, 1.5),
    (MATERN, 2.5),
]


@st.composite
def _kernel_case(draw):
    family, shape = draw(st.sampled_from(_SPEC_CHOICES))
    d = draw(st.integers(1, 3))
    n1 = draw(st.integers(1, 6))
    n2 = draw(st.integers(1, 6))
    coords = st.floats(0.0, 1.0, allow_nan=False)
    X1 = draw(arrays(np.float64, (n1, d), elements=coords))
    X2 = draw(arrays(np.float64, (n2, d), elements=coords))
    phi = draw(arrays(np.float64, (d,), elements=st.floats(0.05, 50.0)))
    return KernelSpec(family=family, shape=shape, dims=d), X1, X2, phi


class TestOracleProperties:
    """Over every family and shape and a wide range of phi, the kernels
    agree with the oracle to a tolerance set by the size of the exponent."""

    @settings(max_examples=150, deadline=None)
    @given(_kernel_case())
    def test_cross_corr(self, case):
        spec, X1, X2, phi = case
        got = cross_corr(X1, X2, RangeParams(phi), spec)
        want = cross_corr_loop(X1, X2, phi, spec)
        _assert_close_in_exponent(got, want, _exponent(X1, X2, phi, spec), spec.dims)

    @settings(max_examples=150, deadline=None)
    @given(_kernel_case())
    def test_corr_matrix_and_derivatives(self, case):
        spec, X, _, phi = case
        params = RangeParams(phi)
        S = _exponent(X, X, phi, spec)
        R_or, dR_or = corr_matrix_with_derivs_loop(X, phi, spec)
        _assert_close_in_exponent(corr_matrix(X, params, spec), R_or, S, spec.dims)
        R, dR = corr_matrix_with_derivs(X, params, spec)
        _assert_close_in_exponent(R, R_or, S, spec.dims)
        for k in range(spec.dims):
            _assert_close_in_exponent(dR[k], dR_or[k], S, spec.dims, extra_ulp=16.0)
