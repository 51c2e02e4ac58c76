"""Correlation families: closed-form values, derivative identities, and
agreement with the entry-by-entry product-form oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfcokrig.bench import borehole_high, borehole_low, scale_to_box
from mfcokrig.exceptions import InvalidArgumentError, RangeOverflowError
from mfcokrig.kernels import (
    DEFAULT_NUGGET,
    MATERN,
    MAX_NUGGET,
    POWER_EXPONENTIAL,
    KernelSpec,
    RangeParams,
    Workspace,
    corr_matrix,
    corr_matrix_with_derivs,
    cross_corr,
)
from mfcokrig.modelio import read_record, record
from oracles import corr1d, corr_matrix_loop, corr_matrix_with_derivs_loop, cross_corr_loop

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


def _r1d(h, phi, spec):
    """One-dimensional correlation at distances ``h`` through ``cross_corr``
    at d = 1: the points ``h`` against the origin, with range ``phi``."""
    h_arr = np.asarray(h, dtype=np.float64)
    C = cross_corr(h_arr.reshape(-1, 1), np.zeros((1, 1)), RangeParams([phi]), spec)
    return float(C[0, 0]) if h_arr.ndim == 0 else C[:, 0]


class TestCorr1d:
    """The 1-d correlation, read off ``cross_corr`` at d = 1."""

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
            assert _r1d(phi, phi, spec) == pytest.approx(expected, rel=1e-14)

    def test_zero_distance_is_one(self):
        for spec in _specs():
            assert _r1d(0.0, 0.4, spec) == 1.0

    def test_decreasing_in_distance(self):
        rng = np.random.default_rng(11)
        for spec in _specs():
            for _ in range(20):
                phi = rng.uniform(0.1, 5.0)
                h = np.sort(rng.uniform(0.0, 10.0, size=30))
                r = _r1d(h, phi, spec)
                assert np.all(np.diff(r) <= 0.0)
                # extreme h/phi ratios may underflow to exactly zero
                assert np.all(r >= 0.0) and np.all(r <= 1.0)

    def test_increasing_in_range(self):
        rng = np.random.default_rng(12)
        for spec in _specs():
            for _ in range(20):
                h = rng.uniform(0.05, 4.0)
                phis = np.sort(rng.uniform(0.05, 8.0, size=10))
                r = np.array([_r1d(h, p, spec) for p in phis])
                assert np.all(np.diff(r) >= 0.0)

    def test_rejects_bad_arguments(self):
        spec = KernelSpec(family=MATERN, shape=2.5)
        with pytest.raises(InvalidArgumentError):
            _r1d(np.nan, 1.0, spec)
        with pytest.raises(InvalidArgumentError):
            _r1d(1.0, 0.0, spec)
        with pytest.raises(InvalidArgumentError):
            _r1d(1.0, -2.0, spec)


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
        for bad in ({"shape": "abc"}, {"shape": "2.5"}, {"dims": True}, {"nugget": None}):
            with pytest.raises(InvalidArgumentError):
                KernelSpec(family=MATERN, **bad)
        with pytest.raises(InvalidArgumentError):
            KernelSpec(family=MATERN, nugget=2e-4)
        with pytest.raises(InvalidArgumentError):
            KernelSpec(family=MATERN, nugget=-1e-12)

    def test_roundtrip(self):
        spec = KernelSpec(family=MATERN, shape=1.5, dims=3, nugget=1e-8)
        assert read_record(KernelSpec, record(spec), "kernel") == spec


class TestRangeParams:
    def test_xi_bijection(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            phi = rng.uniform(0.01, 100.0, size=rng.integers(1, 6))
            params = RangeParams(phi)
            back = RangeParams.from_xi(params.xi)
            np.testing.assert_allclose(back.phi, phi, rtol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        xi=arrays(
            np.float64,
            st.integers(1, 8),
            elements=st.floats(-700.0, 700.0, allow_nan=False, allow_infinity=False),
        )
    )
    def test_xi_phi_round_trip_property(self, xi):
        """xi -> phi -> xi and phi -> xi -> phi are the identity wherever
        phi = exp(-xi) is a normal double, up to rounding: a few ulp of
        ``1 + |xi|``, since an ulp of xi is a relative step of phi."""
        tol = 4.0 * np.finfo(np.float64).eps * (1.0 + np.abs(xi))
        params = RangeParams.from_xi(xi)
        assert np.all(np.abs(params.xi - xi) <= tol)
        back = RangeParams.from_xi(params.xi)
        assert np.all(np.abs(back.phi / params.phi - 1.0) <= tol)

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
    @settings(max_examples=300, deadline=None)
    @given(
        family_shape=st.one_of(
            st.tuples(st.just(POWER_EXPONENTIAL), st.floats(0.05, 1.99)),
            st.tuples(st.just(MATERN), st.sampled_from([0.5, 1.5, 2.5])),
        ),
        dims=st.integers(1, 3),
        data=st.data(),
    )
    def test_symmetric_positive_definite_property(self, family_shape, dims, data):
        """Over distinct points of the quarter lattice in the unit cube,
        ranges in [0.05, 1] and nuggets in [0, MAX_NUGGET], R is exactly
        symmetric with unit-plus-nugget diagonal, and Cholesky succeeds."""
        family, shape = family_shape
        lattice = np.array(np.meshgrid(*[np.linspace(0.0, 1.0, 5)] * dims)).reshape(dims, -1).T
        rows = data.draw(
            st.lists(st.integers(0, lattice.shape[0] - 1), min_size=2, max_size=12, unique=True)
        )
        phi = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=dims, max_size=dims)))
        nugget = data.draw(st.sampled_from([0.0, DEFAULT_NUGGET, 1e-6, 1e-4]))
        spec = KernelSpec(family=family, shape=shape, dims=dims, nugget=nugget)
        R = corr_matrix(lattice[rows], RangeParams(phi), spec)
        np.testing.assert_array_equal(R, R.T)
        np.testing.assert_array_equal(np.diag(R), 1.0 + nugget)
        L = np.linalg.cholesky(R)
        assert np.all(np.diag(L) > 0.0)

    def test_matches_product_of_univariate_correlations(self):
        """R[i,j] is the product over dimensions of the oracle's 1-d values."""
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

    @pytest.mark.parametrize("spec", _specs(), ids=lambda s: f"{s.family}-{s.shape}")
    def test_underflowed_correlation_has_zero_derivative(self, spec):
        # distances huge relative to phi drive r to exactly 0; the ratio
        # formula would overflow there, so the derivative must be 0, not nan
        X = np.array([[0.0], [500.0]])
        params = RangeParams(np.array([1e-3]))
        R, dR = corr_matrix_with_derivs(X, params, spec)
        assert R[0, 1] == 0.0
        assert dR[0][0, 1] == 0.0
        assert np.all(np.isfinite(dR))

    @pytest.mark.parametrize("spec", _specs(dims=2), ids=lambda s: f"{s.family}-{s.shape}")
    def test_partly_underflowed_correlation(self, spec):
        """Three clusters of four rows: pairs across clusters underflow, and
        those with a row of the last cluster overflow their derivative
        ratios too; pairs within a cluster keep the oracle's derivatives."""
        X = np.random.default_rng(35).uniform(0.0, 1.0, size=(12, 2))
        X[4:8, 0] += 100.0
        X[8:, 0] += 1e307
        phi = np.array([0.1, 0.5])
        # at 1e307 apart |dx|^1.9 overflows already in the distance stack
        with np.errstate(over="ignore", invalid="ignore"):
            R, dR = corr_matrix_with_derivs(X, RangeParams(phi), spec)
            _, dR_or = corr_matrix_with_derivs_loop(X, phi, spec)
        cluster = np.arange(12) // 4
        across = cluster[:, None] != cluster[None, :]
        assert np.all(R[across] == 0.0) and np.all(R[~across] > 0.0)
        assert np.all(np.isfinite(dR))
        assert np.all(dR[:, across] == 0.0)
        np.testing.assert_allclose(dR[:, ~across], dR_or[:, ~across], rtol=1e-13, atol=1e-15)


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
            ws = Workspace(X, spec, derivs=True)
            np.testing.assert_array_equal(
                corr_matrix(X, params, spec, ws=ws), corr_matrix(X, params, spec)
            )
            R, dR = corr_matrix_with_derivs(X, params, spec, ws=ws)
            np.testing.assert_array_equal(R, corr_matrix(X, params, spec))
            np.testing.assert_array_equal(dR, corr_matrix_with_derivs(X, params, spec)[1])
        with pytest.raises(InvalidArgumentError):
            corr_matrix(X, params, spec, ws=Workspace(X[:5], spec))

    def test_workspace_of_another_design_or_spec_is_refused(self):
        # a design of the same size once passed the shape check, and R came
        # back built on the workspace's design
        rng = np.random.default_rng(47)
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        X, Y = rng.uniform(0.0, 1.0, size=(6, 2)), rng.uniform(0.0, 1.0, size=(6, 2))
        params = RangeParams([0.5, 0.8])
        ws = Workspace(X, spec, derivs=True)
        others = (
            KernelSpec(family=MATERN, shape=1.5, dims=2),
            KernelSpec(family=MATERN, shape=2.5, dims=2, nugget=1e-6),
        )
        for build in (corr_matrix, corr_matrix_with_derivs):
            with pytest.raises(InvalidArgumentError, match="another design"):
                build(Y, params, spec, ws=ws)
            for other in others:
                with pytest.raises(InvalidArgumentError, match="built for"):
                    build(X, params, other, ws=ws)
        # an equal copy of the design with an equal spec is the same build
        np.testing.assert_array_equal(
            corr_matrix(X.copy(), params, KernelSpec(family=MATERN, shape=2.5, dims=2), ws=ws),
            corr_matrix(X, params, spec),
        )

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
LOG_MAX = math.log(np.finfo(np.float64).max)


def _log_derivative_scale(phi, spec):
    """``log(c / phi)`` per dimension, with ``c / phi`` the scale of
    ``dR / dphi`` over ``r`` times the pair rows: ``alpha phi^-alpha / phi``
    (alpha 1 for Matern 1/2), and ``1 / phi`` or ``1 / (3 phi)`` for
    Matern 3/2 and 5/2."""
    log_phi = np.log(phi)
    if spec.family == POWER_EXPONENTIAL:
        return math.log(spec.shape) - (spec.shape + 1.0) * log_phi
    if spec.shape == 0.5:
        return -2.0 * log_phi
    return (0.0 if spec.shape == 1.5 else -math.log(3.0)) - log_phi


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


@st.composite
def _packed_case(draw, phi_low, phi_high):
    family, shape = draw(st.sampled_from(_SPEC_CHOICES))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    nugget = draw(st.sampled_from([0.0, DEFAULT_NUGGET, MAX_NUGGET]))
    X = draw(arrays(np.float64, (n, d), elements=st.floats(0.0, 1.0, allow_nan=False)))
    phi = draw(arrays(np.float64, (d,), elements=st.floats(phi_low, phi_high)))
    return KernelSpec(family=family, shape=shape, dims=d, nugget=nugget), X, phi


class TestPackedBuild:
    """R is computed over the distinct row pairs and gathered into the
    full matrix, for every family and shape."""

    # ranges of at least the input span keep the exponent below about 7,
    # where the kernel and the oracle agree to a few ulp
    @settings(max_examples=150, deadline=None)
    @given(_packed_case(1.0, 50.0))
    def test_symmetric_with_exact_diagonal_and_oracle_values(self, case):
        spec, X, phi = case
        params = RangeParams(phi)
        ws = Workspace(X, spec)
        R = corr_matrix(X, params, spec, ws=ws)
        np.testing.assert_array_equal(R, R.T)
        np.testing.assert_array_equal(R.diagonal(), 1.0 + spec.nugget)
        np.testing.assert_allclose(R, corr_matrix_loop(X, phi, spec), rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(corr_matrix_with_derivs(X, params, spec)[0], R)
        # an R-only workspace holds no (d, n, n) array
        assert all(v.ndim < 3 for v in vars(ws).values() if isinstance(v, np.ndarray))

    # the smallest ranges overflow Matern's polynomial factors; below
    # about 1e-162 the weights phi^-alpha overflow and the ranges are
    # rejected (see test_ranges_whose_weights_overflow_are_rejected), and
    # so are those whose derivative scales overflow, for the derivative
    # stack (see test_ranges_whose_derivative_scales_overflow_are_rejected)
    @settings(max_examples=150, deadline=None)
    @given(_packed_case(1e-160, 1e-2))
    def test_underflowed_pairs_are_exactly_zero(self, case):
        spec, X, phi = case
        params = RangeParams(phi)
        R = corr_matrix(X, params, spec, ws=Workspace(X, spec))
        assert np.isfinite(R).all()
        with np.errstate(over="ignore"):
            far = _exponent(X, X, phi, spec) > 800.0
        assert (R[far] == 0.0).all()
        log_scale = _log_derivative_scale(phi, spec).max()
        try:
            R_d, dR = corr_matrix_with_derivs(
                X, params, spec, ws=Workspace(X, spec, derivs=True)
            )
        except RangeOverflowError:
            assert log_scale > LOG_MAX - 1e-9
            return
        assert log_scale < LOG_MAX + 1e-9
        assert np.isfinite(dR).all()
        assert (dR[:, R == 0.0] == 0.0).all()
        np.testing.assert_array_equal(R_d, R)

    def test_ranges_whose_derivative_scales_overflow_are_rejected(self):
        # r = exp(-0.1) is positive, but dr/dphi = r (h / phi) / phi is
        # 9.05e158, which the derivative scale 1 / phi^2 = 1e320 cannot
        # reach: a capped scale gave 1.63e147
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.0, dims=1)
        X = np.array([[0.0], [1e-161]])
        params = RangeParams([1e-160])
        assert corr_matrix(X, params, spec)[0, 1] == pytest.approx(math.exp(-0.1), rel=1e-15)
        for ws in (None, Workspace(X, spec, derivs=True)):
            with pytest.raises(RangeOverflowError, match="derivative scales overflow"):
                corr_matrix_with_derivs(X, params, spec, ws=ws)
        # the same pair 1e10 times larger keeps its scale finite and gets
        # the exact derivative
        X = X * 1e10
        _, dR = corr_matrix_with_derivs(X, RangeParams([1e-150]), spec)
        assert dR[0, 0, 1] == pytest.approx(math.exp(-0.1) * 1e-151 / 1e-300, rel=1e-14)

    def test_ranges_whose_weights_overflow_are_rejected(self):
        # phi^-1.9 overflows at phi = 1e-300; a capped weight met
        # |dx|^1.9 = 0 (underflowed) and read R[0, 1] = 1, where the true
        # correlation is exp(-(8.8e-250 / 1e-300)^1.9) = 0
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=1)
        X = np.array([[8.8e-250], [0.0]])
        params = RangeParams([1e-300])
        for build in (
            lambda: corr_matrix(X, params, spec),
            lambda: corr_matrix(X, params, spec, ws=Workspace(X, spec, grad=True)),
            lambda: corr_matrix_with_derivs(X, params, spec),
            lambda: cross_corr(X, X, params, spec),
        ):
            with pytest.raises(InvalidArgumentError, match="too small"):
                build()
        # Matern's weight 1 / phi overflows only at subnormal ranges
        matern = KernelSpec(family=MATERN, shape=2.5, dims=1)
        assert corr_matrix(X, params, matern)[0, 1] == 0.0
        with pytest.raises(InvalidArgumentError, match="too small"):
            corr_matrix(X, RangeParams([1e-310]), matern)

    @pytest.mark.parametrize("family, shape", _SPEC_CHOICES)
    def test_one_row_design(self, family, shape):
        spec = KernelSpec(family=family, shape=shape, dims=2, nugget=1e-6)
        X = np.array([[0.3, 0.7]])
        params = RangeParams([0.5, 2.0])
        for ws in (None, Workspace(X, spec, derivs=True)):
            assert corr_matrix(X, params, spec, ws=ws).tolist() == [[1.0 + 1e-6]]
            R, dR = corr_matrix_with_derivs(X, params, spec, ws=ws)
            assert R.tolist() == [[1.0 + 1e-6]]
            assert dR.tolist() == [[[0.0]], [[0.0]]]


_SPEC2 = KernelSpec(family=MATERN, shape=2.5, dims=2)
_UNIT2 = RangeParams(np.ones(2))
_ENTRY_POINTS = {
    "RangeParams": (RangeParams, "phi"),
    "RangeParams.from_xi": (RangeParams.from_xi, "xi"),
    "corr_matrix": (lambda v: corr_matrix(v, _UNIT2, _SPEC2), "X"),
    "corr_matrix_with_derivs": (lambda v: corr_matrix_with_derivs(v, _UNIT2, _SPEC2), "X"),
    "cross_corr-X1": (lambda v: cross_corr(v, np.zeros((1, 2)), _UNIT2, _SPEC2), "X1"),
    "cross_corr-X2": (lambda v: cross_corr(np.zeros((1, 2)), v, _UNIT2, _SPEC2), "X2"),
    "Workspace": (lambda v: Workspace(v, _SPEC2), "X"),
    "borehole_low": (borehole_low, "x"),
    "borehole_high": (borehole_high, "x"),
    "scale_to_box": (scale_to_box, "U"),
}
_NOT_REAL = {
    "string": "abc",
    "strings": [["a", "b"]],
    "ragged": [[0.1, 0.2], [0.3]],
    "complex": np.full((1, 8), 0.5 + 0.5j),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("value", sorted(_NOT_REAL))
def test_array_entry_points_raise_typed_errors_naming_the_argument(entry, value):
    """Kernel and borehole entry points given strings, ragged rows or
    complex numbers raise InvalidArgumentError naming the argument, and
    never warn (a ComplexWarning would mean the real part was taken)."""
    fn, name = _ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match=rf"^{name} must"):
            fn(_NOT_REAL[value])
