"""Objective priors: Fisher-information structure, determinant identities,
and the robust-prior closed form."""

import math

import numpy as np
import pytest

from mfcokrig.exceptions import InvalidArgumentError
from mfcokrig.gp import LevelData, constant_basis, gls_fit
from mfcokrig.kernels import (
    MATERN,
    POWER_EXPONENTIAL,
    KernelSpec,
    RangeParams,
    Workspace,
    corr_matrix,
)
from mfcokrig.modelio import read_record, record
from mfcokrig.priors import (
    FLAT,
    INVERSE_RANGE,
    JEFFREYS1,
    JEFFREYS2,
    JOINTLY_ROBUST,
    PRIOR_KINDS,
    REFERENCE,
    PriorSpec,
    fisher_info,
    log_prior,
)
from oracles import corr_matrix_with_derivs_loop, integrated_log_likelihood


def _toy_level(rng, n=10, d=2, with_lower=False):
    X = rng.uniform(0.0, 1.0, size=(n, d))
    y = np.cos(2.0 * X[:, 0]) + X[:, 1] + 0.05 * rng.standard_normal(n)
    lower = rng.standard_normal(n) + 1.5 if with_lower else None
    return LevelData(
        index=2 if with_lower else 1,
        inputs=X,
        outputs=y,
        basis=constant_basis(X),
        lower_output=lower,
        basis_fn=constant_basis,
    )


def _reference_info_oracle(lv, phi, spec):
    """Dense reference: projector via explicit inverses, correlations and
    derivatives entry by entry (``tests/oracles.py``)."""
    R, dR = corr_matrix_with_derivs_loop(lv.inputs, phi, spec)
    Rinv = np.linalg.inv(R)
    X = lv.design
    M = X.T @ Rinv @ X
    Q = Rinv - Rinv @ X @ np.linalg.inv(M) @ X.T @ Rinv
    d = phi.size
    W = [dR[k] @ Q for k in range(d)]
    info = np.empty((d + 1, d + 1))
    info[0, 0] = lv.n - lv.q
    for k in range(d):
        info[0, k + 1] = info[k + 1, 0] = np.trace(W[k])
        for j in range(d):
            info[k + 1, j + 1] = np.trace(W[k] @ W[j])
    return info


def _jeffreys_info_oracle(lv, phi, spec):
    R, dR = corr_matrix_with_derivs_loop(lv.inputs, phi, spec)
    Rinv = np.linalg.inv(R)
    d = phi.size
    U = [dR[k] @ Rinv for k in range(d)]
    info = np.empty((d + 1, d + 1))
    info[0, 0] = lv.n
    for k in range(d):
        info[0, k + 1] = info[k + 1, 0] = np.trace(U[k])
        for j in range(d):
            info[k + 1, j + 1] = np.trace(U[k] @ U[j])
    return info


_FOUR_KERNELS = (
    KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=2),
    KernelSpec(family=MATERN, shape=0.5, dims=2),
    KernelSpec(family=MATERN, shape=1.5, dims=2),
    KernelSpec(family=MATERN, shape=2.5, dims=2),
)
_KERNEL_IDS = ("powexp1.9", "matern0.5", "matern1.5", "matern2.5")


def _likelihood_fact(lv, params, spec):
    """The factorization ``objective`` hands the prior: built in a
    derivative workspace, with the likelihood already read from it."""
    ws = Workspace(lv.inputs, spec, derivs=True)
    fact = gls_fit(lv, params, spec, ws=ws)
    integrated_log_likelihood(lv, params, spec, 1.0, fact=fact)
    return fact


def _each_kernel_and_level(test):
    """Every kernel, with and without a lower level."""
    test = pytest.mark.parametrize("spec", _FOUR_KERNELS, ids=_KERNEL_IDS)(test)
    return pytest.mark.parametrize(
        "with_lower", (False, True), ids=("level1", "level2"))(test)


# the factorization is a fresh one or the one the likelihood has just read
_reuse = pytest.mark.parametrize("reuse", (False, True), ids=("fresh", "likelihood_fact"))


class TestFisherInformation:
    @_each_kernel_and_level
    @_reuse
    def test_reference_matches_dense_oracle(self, spec, with_lower, reuse):
        rng = np.random.default_rng(50)
        lv = _toy_level(rng, with_lower=with_lower)
        phi = rng.uniform(0.4, 1.5, size=2)
        params = RangeParams(phi)
        fact = _likelihood_fact(lv, params, spec) if reuse else None
        got = fisher_info(lv, params, spec, True, fact)
        want = _reference_info_oracle(lv, phi, spec)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)

    @_each_kernel_and_level
    @_reuse
    def test_jeffreys_matches_dense_oracle(self, spec, with_lower, reuse):
        rng = np.random.default_rng(51)
        lv = _toy_level(rng, with_lower=with_lower)
        phi = rng.uniform(0.4, 1.5, size=2)
        params = RangeParams(phi)
        fact = _likelihood_fact(lv, params, spec) if reuse else None
        got = fisher_info(lv, params, spec, False, fact)
        want = _jeffreys_info_oracle(lv, phi, spec)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)

    @_each_kernel_and_level
    @pytest.mark.parametrize("kind", (REFERENCE, JEFFREYS1, JEFFREYS2))
    def test_log_prior_is_the_same_with_the_likelihood_fact(self, spec, with_lower, kind):
        rng = np.random.default_rng(54)
        lv = _toy_level(rng, with_lower=with_lower)
        params = RangeParams(rng.uniform(0.4, 1.5, size=2))
        prior = PriorSpec(kind=kind)
        got = log_prior(lv, params, spec, prior, fact=_likelihood_fact(lv, params, spec))
        want = log_prior(lv, params, spec, prior)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(52)
        spec = KernelSpec(family=MATERN, shape=2.5, dims=3)
        for _ in range(10):
            lv = _toy_level(rng, n=12, d=3)
            phi = rng.uniform(0.2, 2.0, size=3)
            for info in (
                fisher_info(lv, RangeParams(phi), spec, True),
                fisher_info(lv, RangeParams(phi), spec, False),
            ):
                np.testing.assert_array_equal(info, info.T)
                np.linalg.cholesky(info)

    def test_corner_entries(self):
        rng = np.random.default_rng(53)
        lv = _toy_level(rng, with_lower=True)
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phi = np.array([0.8, 0.8])
        ref = fisher_info(lv, RangeParams(phi), spec, True)
        jef = fisher_info(lv, RangeParams(phi), spec, False)
        assert ref[0, 0] == lv.n - lv.q
        assert jef[0, 0] == lv.n


class TestDeterminantIdentities:
    def test_j2_minus_j1_is_half_logdet_of_whitened_design(self):
        rng = np.random.default_rng(60)
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        for with_lower in (False, True):
            lv = _toy_level(rng, with_lower=with_lower)
            for _ in range(10):
                phi = rng.uniform(0.2, 3.0, size=2)
                params = RangeParams(phi)
                j1 = log_prior(lv, params, spec, PriorSpec(kind=JEFFREYS1))
                j2 = log_prior(lv, params, spec, PriorSpec(kind=JEFFREYS2))
                R = corr_matrix(lv.inputs, params, spec)
                X = lv.design
                M = X.T @ np.linalg.solve(R, X)
                want = 0.5 * np.linalg.slogdet(M)[1]
                assert j2 - j1 == pytest.approx(want, abs=1e-10)

    def test_reference_prior_is_half_logdet(self):
        rng = np.random.default_rng(61)
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=2)
        lv = _toy_level(rng)
        phi = np.array([0.5, 1.2])
        info = fisher_info(lv, RangeParams(phi), spec, True)
        want = 0.5 * np.linalg.slogdet(info)[1]
        got = log_prior(lv, RangeParams(phi), spec, PriorSpec(kind=REFERENCE))
        assert got == pytest.approx(want, rel=1e-12)


class TestJointlyRobust:
    def test_default_hyperparameters(self):
        # 25 runs whose inputs span exactly 1 in each of 3 dimensions
        rng = np.random.default_rng(71)
        lv = _toy_level(rng, n=25, d=3)
        lv.inputs[:2] = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
        phi = np.array([0.5, 1.0, 2.0])
        grad = np.empty(3)
        got = log_prior(lv, RangeParams(phi), None, PriorSpec(kind=JOINTLY_ROBUST), grad=grad)
        a0, b0, C = 0.5 - 3, 1.0, 25.0 ** (-1.0 / 3.0) * np.ones(3)
        total = float(C @ (1.0 / phi))
        assert got == pytest.approx(a0 * math.log(total) - b0 * total, rel=1e-15)
        np.testing.assert_allclose(grad, (a0 / total - b0) * C / phi, rtol=1e-15)

    def test_rejects_constant_dimension(self):
        lv = _toy_level(np.random.default_rng(72))
        lv.inputs[:, 1] = 0.5
        with pytest.raises(InvalidArgumentError, match="constant"):
            log_prior(lv, RangeParams(np.ones(2)), None, PriorSpec(kind=JOINTLY_ROBUST))

    def test_closed_form_value(self):
        lv = _toy_level(np.random.default_rng(73))
        prior = PriorSpec(kind=JOINTLY_ROBUST, jr_a0=0.2, jr_b0=1.5, jr_C=[0.3, 0.6])
        phi = np.array([2.0, 3.0])
        total = 0.3 / 2.0 + 0.6 / 3.0
        want = 0.2 * math.log(total) - 1.5 * total
        got = log_prior(lv, RangeParams(phi), None, prior)
        assert got == pytest.approx(want, rel=1e-14)

    def test_a0_constraint(self):
        lv = _toy_level(np.random.default_rng(74))
        prior = PriorSpec(kind=JOINTLY_ROBUST, jr_a0=-4.0, jr_C=[1.0, 1.0])
        with pytest.raises(InvalidArgumentError):
            log_prior(lv, RangeParams(np.array([1.0, 1.0])), None, prior)

    def test_defaults_pulled_from_data(self):
        rng = np.random.default_rng(70)
        lv = _toy_level(rng, n=16, d=2)
        prior = PriorSpec(kind=JOINTLY_ROBUST)
        phi = np.array([0.7, 1.1])
        got = log_prior(lv, RangeParams(phi), None, prior)
        ranges = lv.inputs.max(axis=0) - lv.inputs.min(axis=0)
        a0, b0, C = 0.5 - 2, 1.0, 16.0 ** (-1.0 / 2.0) * ranges
        total = float(C @ (1.0 / phi))
        want = a0 * math.log(total) - b0 * total
        assert got == pytest.approx(want, rel=1e-12)


class TestPriorSpec:
    def test_kinds_and_validation(self):
        assert set(PRIOR_KINDS) == {
            REFERENCE,
            JEFFREYS1,
            JEFFREYS2,
            JOINTLY_ROBUST,
            FLAT,
            INVERSE_RANGE,
        }
        with pytest.raises(InvalidArgumentError):
            PriorSpec(kind="uniform")
        with pytest.raises(InvalidArgumentError):
            PriorSpec(kind=JOINTLY_ROBUST, jr_b0=0.0)
        with pytest.raises(InvalidArgumentError):
            PriorSpec(kind=JOINTLY_ROBUST, jr_C=[1.0, -1.0])
        with pytest.raises(InvalidArgumentError, match="jr_C"):
            PriorSpec(kind=REFERENCE, jr_C="a")
        with pytest.raises(InvalidArgumentError, match="jr_a0"):
            PriorSpec(kind=JOINTLY_ROBUST, jr_a0="x")

    def test_jointly_robust_needs_b0(self):
        for b0 in (None, float("nan"), float("inf"), "1.0", True):
            with pytest.raises(InvalidArgumentError, match="jr_b0"):
                PriorSpec(kind=JOINTLY_ROBUST, jr_b0=b0)
        # kinds that never read jr_b0 do not need one
        assert PriorSpec(kind=REFERENCE, jr_b0=None).jr_b0 is None

    def test_variance_exponent_pairing(self):
        assert PriorSpec(kind=JEFFREYS2).a_t(2) == 2.0
        assert PriorSpec(kind=JEFFREYS2).a_t(1) == 1.5
        for kind in (REFERENCE, JEFFREYS1, JOINTLY_ROBUST, FLAT, INVERSE_RANGE):
            assert PriorSpec(kind=kind).a_t(2) == 1.0

    def test_roundtrip(self):
        prior = PriorSpec(kind=JOINTLY_ROBUST, jr_a0=0.2, jr_b0=2.0, jr_C=[0.5, 0.5])
        back = read_record(PriorSpec, record(prior), "prior")
        assert back.kind == prior.kind
        assert back.jr_a0 == prior.jr_a0
        assert back.jr_b0 == prior.jr_b0
        np.testing.assert_array_equal(back.jr_C, prior.jr_C)


class TestDispatch:
    def test_flat_and_inverse_range(self):
        rng = np.random.default_rng(80)
        lv = _toy_level(rng)
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phi = np.array([0.4, 2.5])
        assert log_prior(lv, RangeParams(phi), spec, PriorSpec(kind=FLAT)) == 0.0
        got = log_prior(lv, RangeParams(phi), spec, PriorSpec(kind=INVERSE_RANGE))
        assert got == pytest.approx(-float(np.sum(np.log(phi))), rel=1e-14)

    def test_reference_and_jeffreys_routes(self):
        """Each Fisher kind is half the log-determinant of its dense oracle
        information (explicit inverses, finite-difference derivatives);
        ``jeffreys2`` adds half the log-determinant of ``X^T R^-1 X``."""
        rng = np.random.default_rng(81)
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        phi = np.array([0.9, 0.7])
        params = RangeParams(phi)
        for with_lower in (False, True):
            lv = _toy_level(rng, with_lower=with_lower)
            R = corr_matrix(lv.inputs, params, spec)
            X = lv.design
            half_logdet_M = 0.5 * np.linalg.slogdet(X.T @ np.linalg.solve(R, X))[1]
            ref = 0.5 * np.linalg.slogdet(_reference_info_oracle(lv, phi, spec))[1]
            jef = 0.5 * np.linalg.slogdet(_jeffreys_info_oracle(lv, phi, spec))[1]
            for kind, want in (
                (REFERENCE, ref),
                (JEFFREYS1, jef),
                (JEFFREYS2, jef + half_logdet_M),
            ):
                got = log_prior(lv, params, spec, PriorSpec(kind=kind))
                assert got == pytest.approx(want, rel=1e-6, abs=1e-6), kind
