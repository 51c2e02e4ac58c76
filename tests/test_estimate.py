"""Data assembly, the posterior objective, and multi-start estimation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcokrig import estimate as estimate_module
from mfcokrig import optim as optim_module
from mfcokrig.bench import borehole_high, borehole_low, replicate_design, scale_to_box
from mfcokrig.estimate import (
    MATCH_TOL,
    PLUGIN,
    POSTERIOR,
    SENTINEL,
    SENTINEL_THRESHOLD,
    CokrigingData,
    OptimOptions,
    assemble,
    coincident_rows,
    concentrated_restricted_likelihood,
    fit,
    fit_level,
    _plugin_objective,
    match_rows,
    objective,
)
from mfcokrig.exceptions import (
    DegenerateDataError,
    DesignRankError,
    DuplicateRowError,
    EstimationError,
    InvalidArgumentError,
    NestingError,
    PriorEvaluationError,
    SingularCorrelationError,
)
from mfcokrig.gp import gls_fit, integrated_log_likelihood
from mfcokrig.kernels import (
    MATERN,
    POWER_EXPONENTIAL,
    KernelSpec,
    RangeParams,
    Workspace,
    corr_matrix,
)
from mfcokrig.modelio import read_record, record
from mfcokrig.priors import FISHER_KINDS, JOINTLY_ROBUST, PRIOR_KINDS, PriorSpec, log_prior
from oracles import (
    coincident_rows_loop,
    dense_fisher_xi_gradient,
    dense_objective,
    dense_xi_gradient,
    every_start,
    plain_lbfgs_max,
    stopping_rule,
)


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


# per-coordinate offsets on both sides of the tolerance, including exactly
# the tolerance and one rounding step either side of it
_OFFSETS = [0.0, 1e-14, 1.0, 1.0 - 1e-15, 1.0 + 1e-15, 2.0, 0.5, 1e3]


@st.composite
def _row_sets(draw):
    """Rows ``A`` and rows ``B`` made of ``A``'s rows moved by multiples of
    ``tol`` per coordinate, plus unrelated rows, some non-finite."""
    d = draw(st.integers(1, 3))
    tol = draw(st.sampled_from([MATCH_TOL, 1e-6, 0.25]))
    m = draw(st.integers(0, 5))
    coord = st.floats(-1e3, 1e3, allow_nan=False)
    A = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=m, max_size=m)))
    A = A.reshape(m, d)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if m and draw(st.booleans()):
            base = A[draw(st.integers(0, m - 1))]
            steps = draw(st.lists(st.sampled_from(_OFFSETS), min_size=d, max_size=d))
            signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d))
            rows.append(base + np.array(signs) * np.array(steps) * tol)
        else:
            rows.append(np.array(draw(st.lists(coord, min_size=d, max_size=d))))
    B = np.array(rows).reshape(len(rows), d)
    if draw(st.booleans()) and B.size:
        B[draw(st.integers(0, B.shape[0] - 1)), 0] = draw(st.sampled_from([np.nan, np.inf]))
    return A, B, tol


class TestCoincidentRows:
    @settings(max_examples=300, deadline=None)
    @given(_row_sets())
    def test_equals_row_loop(self, case):
        A, B, tol = case
        np.testing.assert_array_equal(coincident_rows(A, B, tol), coincident_rows_loop(A, B, tol))
        np.testing.assert_array_equal(coincident_rows(B, A, tol), coincident_rows_loop(B, A, tol))

    def test_offset_of_exactly_tol_coincides(self):
        A = np.array([[0.0, 0.0]])
        B = np.array([[MATCH_TOL, -MATCH_TOL], [MATCH_TOL * (1 + 1e-15), 0.0]])
        np.testing.assert_array_equal(coincident_rows(A, B), [[True, False]])

    def test_duplicate_error_names_smallest_pair(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(5, 2))
        X[3] = X[0]
        X[2] = X[1]  # (1, 2) has the smaller second index, (0, 3) the smaller first
        with pytest.raises(DuplicateRowError, match="rows 0 and 3"):
            assemble([(X, rng.standard_normal(5))])


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

    def test_assemble_checks_dimensions_before_nesting(self):
        rng = np.random.default_rng(8)
        low = (rng.uniform(size=(8, 2)), rng.standard_normal(8))
        high = (rng.uniform(size=(4, 3)), rng.standard_normal(4))
        with pytest.raises(InvalidArgumentError, match="level 2 has d=3, expected 2"):
            assemble([low, high])

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
        with pytest.raises(InvalidArgumentError, match="basis"):
            assemble([(X1, y1), (X2, y2)], basis=5)

    def test_outputs_are_a_vector_or_a_column(self):
        """``(n,)`` and ``(n, 1)`` outputs assemble to the same level; a row,
        a matrix, a scalar or a wrong length raise naming the level."""
        rng = np.random.default_rng(40)
        (X1, y1), (X2, y2) = _nested_pair(rng)
        want = assemble([(X1, y1), (X2, y2)])
        got = assemble([(X1, y1[:, None]), (X2, y2[:, None])])
        for a, b in zip(want.levels, got.levels):
            np.testing.assert_array_equal(a.outputs, b.outputs)
            assert b.outputs.shape == (a.n,)
        np.testing.assert_array_equal(want.levels[1].lower_output, got.levels[1].lower_output)
        n2 = X2.shape[0]
        for bad in (y2[None, :], np.column_stack([y2, y2]), np.float64(y2[0]),
                    y2[:-1], y2[:-1, None], y2.reshape(n2, 1, 1)):
            with pytest.raises(InvalidArgumentError, match=r"level 2 outputs must have shape"):
                assemble([(X1, y1), (X2, bad)])

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


def _borehole_levels(n_low=80, n_high=30):
    """Replicate 0 of the seeded borehole split: by default 80 low and 30
    nested high runs."""
    U, low_idx, high_idx, _ = replicate_design(0, 0, n_low, n_high, 20)
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


_GRAD_KERNELS = ((POWER_EXPONENTIAL, 1.9), (MATERN, 0.5), (MATERN, 1.5), (MATERN, 2.5))
_GRAD_CRITERIA = ("plugin", "flat", "inverse_range", "jointly_robust") + FISHER_KINDS


def _grad_workspace(lv, spec, kind):
    """The workspace a fit under ``kind`` builds: with the derivative
    buffers for the kinds in ``FISHER_KINDS``."""
    return Workspace(lv.inputs, spec, derivs=kind in FISHER_KINDS, grad=True)


def _value_and_grad(lv, xi, spec, kind, ws):
    """The objective fitted by L-BFGS-B under ``kind`` ("plugin" or a prior
    kind), with and without its gradient: ``(value, grad, float_only)``."""
    grad = np.empty(lv.dims)
    if kind == "plugin":
        return (_plugin_objective(lv, xi, spec, ws, grad), grad,
                _plugin_objective(lv, xi, spec))
    prior = PriorSpec(kind=kind)
    return objective(lv, xi, spec, prior, ws, grad), grad, objective(lv, xi, spec, prior)


def _five_point(f, xi, k, h=1e-2):
    """Fourth-order central difference of ``f`` along coordinate ``k``; at
    level 2 a two-point quotient with a small step is dominated by the
    rounding of the objective, whose error grows as 1/h."""
    e = np.zeros_like(xi)
    e[k] = h
    return (f(xi - 2 * e) - 8 * f(xi - e) + 8 * f(xi + e) - f(xi + 2 * e)) / (12 * h)


class TestGradient:
    """The xi-gradient of the plug-in criterion and of the posterior under
    every prior kind, on both borehole levels."""

    @pytest.mark.parametrize("kernel", _GRAD_KERNELS)
    @pytest.mark.parametrize("kind", _GRAD_CRITERIA)
    @settings(max_examples=6, deadline=None)
    @given(level=st.sampled_from([0, 1]),
           xi=st.lists(st.floats(-2.0, 1.0), min_size=8, max_size=8))
    def test_matches_the_dense_oracle_and_a_difference_quotient(self, kernel, kind, level, xi):
        family, shape = kernel
        spec = KernelSpec(family=family, shape=shape, dims=8)
        lv = _borehole_levels()[level]
        xi = np.array(xi)
        value, grad, float_only = _value_and_grad(
            lv, xi, spec, kind, _grad_workspace(lv, spec, kind))
        assert value > SENTINEL_THRESHOLD
        # the gradient leaves the value untouched, bit for bit
        assert value == float_only
        scale = max(1.0, np.abs(grad).max())
        if kind in FISHER_KINDS:
            want = dense_fisher_xi_gradient(lv, xi, spec, kind)
        else:
            want = dense_xi_gradient(lv, xi, spec, kind)
        np.testing.assert_allclose(grad, want, rtol=0.0, atol=1e-6 * scale)
        f = lambda x: _value_and_grad(lv, x, spec, kind, None)[2]
        fd = np.array([_five_point(f, xi, k) for k in range(8)])
        np.testing.assert_allclose(grad, fd, rtol=0.0, atol=1e-5 * scale)

    @pytest.mark.parametrize("kernel", [(MATERN, 2.5), (POWER_EXPONENTIAL, 1.9)])
    @pytest.mark.parametrize("kind", FISHER_KINDS)
    def test_fisher_gradient_where_R_is_ill_conditioned(self, kernel, kind):
        """Four ranges near e^8 make R ill-conditioned, and the products of
        the Fisher gradient round their two triangles apart by about the
        gradient itself; summed over both triangles it still matches the
        oracle (one triangle missed it by 2e-4 to 6e-4 for Matern 5/2)."""
        family, shape = kernel
        spec = KernelSpec(family=family, shape=shape, dims=8)
        lv = _borehole_levels()[0]
        xi = np.array([-0.8, -8.0, -7.8, -1.9, -7.0, -1.8, -1.5, -2.4])
        _, grad, _ = _value_and_grad(lv, xi, spec, kind, None)
        scale = max(1.0, np.abs(grad).max())
        want = dense_fisher_xi_gradient(lv, xi, spec, kind)
        np.testing.assert_allclose(grad, want, rtol=0.0, atol=1e-6 * scale)

    @pytest.mark.parametrize("kind", _GRAD_CRITERIA)
    def test_coordinates_1e200_apart(self, kind):
        """Two clusters of rows 1e200 apart under power-exponential 1.9:
        ``|dx|^alpha`` overflows the pair stack to inf at pairs whose
        correlation is 0.  The gradient is finite wherever the value is,
        and matches a central difference."""
        rng = np.random.default_rng(41)
        x = np.concatenate([rng.uniform(size=5), 1e200 * (1.0 + 1e-3 * np.arange(5))])
        lv = assemble([(x[:, None], np.sin(np.arange(10.0)))]).levels[0]
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=1)
        ws = _grad_workspace(lv, spec, kind)
        assert np.isinf(ws.stack).any()
        for xi in (-2.0, 0.0, 1.0):
            xi = np.array([xi])
            value, grad, float_only = _value_and_grad(lv, xi, spec, kind, ws)
            assert value == float_only > SENTINEL_THRESHOLD
            f = lambda x: _value_and_grad(lv, x, spec, kind, None)[2]
            np.testing.assert_allclose(grad, [_five_point(f, xi, 0)], rtol=1e-6)

    def test_the_gradient_needs_a_gradient_workspace(self):
        lv = _borehole_levels()[1]
        spec = KernelSpec(family=MATERN, shape=2.5, dims=8)
        xi = np.linspace(-1.0, 0.5, 8)
        for kind in ("jointly_robust", "reference"):
            want = _value_and_grad(lv, xi, spec, kind, _grad_workspace(lv, spec, kind))
            # without one, the evaluation builds its own
            got = _value_and_grad(lv, xi, spec, kind, None)
            assert got[0] == want[0]
            np.testing.assert_array_equal(got[1], want[1])
        # a value-only workspace raises instead of building R again
        with pytest.raises(InvalidArgumentError, match="gradient buffers"):
            _value_and_grad(lv, xi, spec, "jointly_robust", Workspace(lv.inputs, spec))
        # and a Fisher kind needs the derivative buffers, which serve its
        # gradient too
        with pytest.raises(InvalidArgumentError, match="derivative buffers"):
            _value_and_grad(lv, xi, spec, "reference", Workspace(lv.inputs, spec, grad=True))

    def test_only_the_fisher_kinds_hold_a_derivative_stack(self):
        lv = _borehole_levels()[1]
        spec = KernelSpec(family=MATERN, shape=2.5, dims=8)
        # a gradient workspace holds no (d, n, n) array
        ws = Workspace(lv.inputs, spec, grad=True)
        assert all(v.ndim < 3 for v in vars(ws).values() if isinstance(v, np.ndarray))
        # a derivative workspace holds the gradient's buffers as well, with
        # or without grad
        for grad in (False, True):
            ws = Workspace(lv.inputs, spec, derivs=True, grad=grad)
            assert ws.dR.shape == (8, lv.n, lv.n) and ws.gpairs is not None

    @pytest.mark.parametrize("kind", _GRAD_CRITERIA)
    def test_sentinel_comes_with_a_zero_gradient(self, kind):
        rng = np.random.default_rng(11)
        (X1, y1), _ = _nested_pair(rng)
        lv = assemble([(X1, y1)]).levels[0]
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=2, nugget=0.0)
        # singular R (see test_sentinel_on_singular_correlation), and ranges
        # too small for their weights phi^-alpha
        for xi in (np.full(2, -20.0), np.array([0.0, 400.0])):
            value, grad, float_only = _value_and_grad(
                lv, xi, spec, kind, _grad_workspace(lv, spec, kind))
            assert value == float_only == SENTINEL
            np.testing.assert_array_equal(grad, np.zeros(2))


def _allocating_objective(lv, xi, spec, prior, method):
    """The objective composed from the allocating path: ``gls_fit`` without
    a workspace, the criterion, and ``log_prior`` building its own
    factorization; the sentinel where any of them fails."""
    params = RangeParams.from_xi(np.asarray(xi))
    try:
        fact = gls_fit(lv, params, spec)
        if method == PLUGIN:
            return concentrated_restricted_likelihood(lv, params, spec, fact=fact)
        sign = 1.0 if prior.kind == JOINTLY_ROBUST else -1.0
        return (
            integrated_log_likelihood(lv, params, spec, prior.a_t(lv.q), fact=fact)
            + log_prior(lv, params, spec, prior)
            + sign * float(np.sum(xi))
        )
    except (SingularCorrelationError, DegenerateDataError, PriorEvaluationError,
            DesignRankError):
        return SENTINEL


_WS_KERNELS = ((POWER_EXPONENTIAL, 1.9), (MATERN, 0.5), (MATERN, 1.5), (MATERN, 2.5))
_WS_CASES = [(k, kind, POSTERIOR) for k in _WS_KERNELS for kind in PRIOR_KINDS]
_WS_CASES += [(k, "reference", PLUGIN) for k in _WS_KERNELS]
# phi = e^40: with no nugget, R rounds to all ones and its in-place
# factorization fails part way, leaving the workspace half overwritten
_SINGULAR_XI = (-40.0, -40.0)


class TestWorkspace:
    @pytest.mark.parametrize("kernel, kind, method", _WS_CASES)
    @settings(max_examples=10, deadline=None)
    @given(xis=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                        min_size=1, max_size=3))
    def test_objective_equals_the_allocating_path(self, kernel, kind, method, xis):
        family, shape = kernel
        spec = KernelSpec(family=family, shape=shape, dims=2, nugget=0.0)
        prior = PriorSpec(kind=kind)
        data = assemble(list(_nested_pair(np.random.default_rng(30))))
        for lv in data.levels:
            ws = Workspace(lv.inputs, spec,
                           derivs=method == POSTERIOR and kind in FISHER_KINDS)
            for xi in xis:
                for point, singular in ((_SINGULAR_XI, True), (xi, False)):
                    point = np.array(point)
                    if method == PLUGIN:
                        got = _plugin_objective(lv, point, spec, ws)
                    else:
                        got = objective(lv, point, spec, prior, ws)
                    want = _allocating_objective(lv, point, spec, prior, method)
                    assert got == pytest.approx(want, rel=1e-12)
                    assert (got <= SENTINEL_THRESHOLD) or not singular

    @pytest.mark.parametrize("kind, method", [
        ("reference", POSTERIOR), ("jeffreys2", POSTERIOR), ("reference", PLUGIN)])
    def test_fit_level_is_the_same_without_the_workspace(self, monkeypatch, kind, method):
        data = assemble(list(_nested_pair(np.random.default_rng(31))))
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        prior = PriorSpec(kind=kind)
        opts = OptimOptions(seed=5, n_starts=2, max_evals=150)
        with_ws = [fit_level(lv, spec, prior, opts, method=method) for lv in data.levels]

        def allocating(data, params, spec, ws=None, derivs=False):
            # a fresh workspace of the kind the fit built, on every call
            fresh = Workspace(data.inputs, spec, derivs=ws.dR is not None,
                              grad=ws.gpairs is not None)
            return gls_fit(data, params, spec, ws=fresh, derivs=derivs)

        monkeypatch.setattr(estimate_module, "gls_fit", allocating)
        without = [fit_level(lv, spec, prior, opts, method=method) for lv in data.levels]
        assert [record(f) for f in with_ws] == [record(f) for f in without]

    @pytest.mark.parametrize("family, shape, with_grad", [
        (POWER_EXPONENTIAL, 1.9, False), (MATERN, 0.5, False), (MATERN, 1.5, False),
        (MATERN, 2.5, False), (POWER_EXPONENTIAL, 1.9, True), (MATERN, 2.5, True)])
    def test_evaluation_allocates_less_than_one_derivative_stack(self, family, shape,
                                                                 with_grad):
        """A reference-prior evaluation at n=80, d=8 on a warm workspace,
        with or without its gradient, allocates less than one (d, n, n)
        stack in all: the gradient's products go into the workspace's
        buffers too."""
        lv = _borehole_levels()[0]
        spec = KernelSpec(family=family, shape=shape, dims=8)
        prior = PriorSpec(kind="reference")
        ws = Workspace(lv.inputs, spec, derivs=True)
        grad = np.empty(8) if with_grad else None
        assert objective(lv, np.zeros(8), spec, prior, ws, grad) > SENTINEL_THRESHOLD
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            value = objective(lv, np.full(8, 0.5), spec, prior, ws, grad)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert value > SENTINEL_THRESHOLD
        assert peak < lv.dims * lv.n**2 * 8

    def test_plugin_evaluation_allocates_less_than_one_matrix(self):
        """A plug-in Matern 5/2 evaluation at n=200 on a warm workspace
        allocates less than one n x n array in all: the pairs are gathered
        into R without a buffered copy of it."""
        lv = _borehole_levels(200, 60)[0]
        spec = KernelSpec(family=MATERN, shape=2.5, dims=8)
        ws = Workspace(lv.inputs, spec)
        assert _plugin_objective(lv, np.zeros(8), spec, ws) > SENTINEL_THRESHOLD
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            value = _plugin_objective(lv, np.full(8, 0.5), spec, ws)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert value > SENTINEL_THRESHOLD
        assert peak < lv.n**2 * 8


    @pytest.mark.parametrize("family, shape", [(MATERN, 2.5), (POWER_EXPONENTIAL, 1.9)])
    def test_gradient_evaluation_allocates_less_than_one_matrix(self, family, shape):
        """A plug-in evaluation with its gradient at n=200 on a warm
        gradient workspace allocates less than one n x n array in all: the
        gradient runs over the pairs, with R^-1 formed in place."""
        lv = _borehole_levels(200, 60)[0]
        spec = KernelSpec(family=family, shape=shape, dims=8)
        ws = Workspace(lv.inputs, spec, grad=True)
        grad = np.empty(8)
        assert _plugin_objective(lv, np.zeros(8), spec, ws, grad) > SENTINEL_THRESHOLD
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            value = _plugin_objective(lv, np.full(8, 0.5), spec, ws, grad)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert value > SENTINEL_THRESHOLD
        assert peak < lv.n**2 * 8


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
        assert read_record(OptimOptions, record(opts), "optimizer") == opts


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

    def test_default_budget_is_the_optimizer_default(self, monkeypatch):
        """Without ``max_evals`` every start runs on the optimizer's default
        budget of ``500 (d + 1)`` evaluations, which ``TestLbfgsMax`` checks
        that a start never stopped by L-BFGS-B spends in full."""
        rng = np.random.default_rng(34)
        X = rng.uniform(size=(8, 1))
        data = assemble([(X, np.sin(4.0 * X[:, 0]))])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=1)
        real = optim_module.lbfgs_max
        budgets = []

        def recorded(func, x0, tol, max_evals, **kwargs):
            budgets.append(max_evals)
            return real(func, x0, tol=tol, max_evals=max_evals, **kwargs)

        monkeypatch.setattr(optim_module, "lbfgs_max", recorded)
        opts = OptimOptions(n_starts=2, tol=0.0)
        fit_level(data.levels[0], spec, PriorSpec(kind="reference"), opts)
        assert budgets == [None, None]

    @pytest.mark.parametrize("method", [POSTERIOR, PLUGIN])
    @pytest.mark.parametrize("kind", PRIOR_KINDS)
    def test_every_evaluation_goes_through_the_module_objective(
            self, monkeypatch, kind, method):
        """Wrappers installed on ``estimate.objective`` or
        ``estimate._plugin_objective`` (a benchmark clock, a tracer) see
        every evaluation of a fit."""
        rng = np.random.default_rng(36)
        (X1, y1), _ = _nested_pair(rng)
        lv = assemble([(X1, y1)]).levels[0]
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=2)
        calls = {"objective": 0, "_plugin_objective": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(estimate_module, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(estimate_module, name, counted)
        opts = OptimOptions(seed=2, n_starts=2, max_evals=60)
        lf = fit_level(lv, spec, PriorSpec(kind=kind), opts, method=method)
        used = "_plugin_objective" if method == PLUGIN else "objective"
        assert calls[used] == lf.n_evals > 0
        assert sum(calls.values()) == lf.n_evals

    @pytest.mark.parametrize("method", [PLUGIN, POSTERIOR])
    def test_starts_of_sentinels_only_count_as_failed(self, monkeypatch, method):
        """Objectives fitted by L-BFGS-B: a start whose every evaluation is
        a sentinel (with its zero gradient) counts in n_failed_starts."""
        rng = np.random.default_rng(35)
        (X1, y1), _ = _nested_pair(rng)
        lv = assemble([(X1, y1)]).levels[0]
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        name = "_plugin_objective" if method == PLUGIN else "objective"
        real = getattr(estimate_module, name)

        def feasible_near_zero(*args):
            # the sentinel wherever some |xi_k| > 1; the gradient comes last
            if np.abs(args[1]).max() > 1.0:
                args[-1].fill(0.0)
                return SENTINEL
            return real(*args)

        monkeypatch.setattr(estimate_module, name, feasible_near_zero)
        # every start but xi = 0 is drawn from [1.5, 3]^2
        opts = OptimOptions(seed=3, n_starts=4, start_low=1.5, start_high=3.0)
        lf = fit_level(lv, spec, PriorSpec(kind="flat"), opts, method=method)
        assert lf.n_failed_starts == 3
        assert lf.best_start == 0
        assert lf.start_values[1:] == (SENTINEL,) * 3
        assert lf.objective_value > SENTINEL_THRESHOLD
        assert np.abs(lf.xi).max() <= 1.0

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


def _fitted_objective(lv, spec, kind):
    """``func(xi, grad)`` of the objective a fit under ``kind`` ("plugin"
    or a prior kind) maximizes, on the workspace such a fit builds."""
    ws = _grad_workspace(lv, spec, kind)
    if kind == "plugin":
        return lambda xi, grad: _plugin_objective(lv, xi, spec, ws, grad)
    prior = PriorSpec(kind=kind)
    return lambda xi, grad: objective(lv, xi, spec, prior, ws, grad)


def _fit_kind(lv, spec, kind, opts):
    if kind == "plugin":
        return fit_level(lv, spec, PriorSpec(kind="flat"), opts, method=PLUGIN)
    return fit_level(lv, spec, PriorSpec(kind=kind), opts)


def _agree(a, b):
    return abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))


class TestStoppingRule:
    """A level stops after the start at which two usable starts have
    reached its best value so far, and every start after the first usable
    one ends once its running best agrees with that value;
    ``every_start`` runs them all to their own stops, and
    ``stopping_rule`` replays the rule from such runs."""

    SPEC = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=2)

    @staticmethod
    def _assert_the_rule(lf, func, opts, level):
        start_values, n_evals, best_start, xi = stopping_rule(func, 2, opts, level)
        assert lf.start_values == start_values
        assert lf.n_evals == n_evals
        assert lf.best_start == best_start
        np.testing.assert_array_equal(lf.xi, xi)

    def test_agreeing_starts_stop_at_two(self):
        """The second start agrees with the first, ends as its running
        best reaches the first's value, and stops the level."""
        lv = assemble(_nested_pair(np.random.default_rng(38))).levels[1]
        opts = OptimOptions(seed=4, n_starts=6)
        lf = fit_level(lv, self.SPEC, PriorSpec(kind="reference"), opts)
        func = _fitted_objective(lv, self.SPEC, "reference")
        self._assert_the_rule(lf, func, opts, 2)
        runs = every_start(func, 2, opts, 2)
        assert _agree(runs[0].fun, runs[1].fun)
        assert len(lf.start_values) == 2 and lf.n_failed_starts == 0
        assert lf.n_evals < runs[0].n_evals + runs[1].n_evals

    def test_a_lone_best_start_does_not_stop_the_level(self):
        """Three starts agree on a lower value and one start alone on the
        best: every start runs, and the best wins."""
        lv = assemble(_nested_pair(np.random.default_rng(38))).levels[0]
        opts = OptimOptions(seed=4, n_starts=6)
        lf = fit_level(lv, self.SPEC, PriorSpec(kind="inverse_range"), opts)
        runs = every_start(_fitted_objective(lv, self.SPEC, "inverse_range"), 2, opts, 1)
        assert sum(_agree(r.fun, lf.objective_value) for r in runs) == 1
        assert lf.start_values == tuple(r.fun for r in runs)
        assert lf.objective_value == runs[lf.best_start].fun == max(lf.start_values)

    @pytest.mark.parametrize("n_starts", [1, 2])
    @pytest.mark.parametrize("kind", ("plugin",) + PRIOR_KINDS)
    def test_one_or_two_starts_all_run(self, kind, n_starts):
        """Every start runs: the first to its own stop, and the second
        until its running best agrees with the first's value, or to its
        own stop."""
        lv = assemble(_nested_pair(np.random.default_rng(37))).levels[0]
        opts = OptimOptions(seed=4, n_starts=n_starts)
        lf = _fit_kind(lv, self.SPEC, kind, opts)
        self._assert_the_rule(lf, _fitted_objective(lv, self.SPEC, kind), opts, 1)
        assert len(lf.start_values) == n_starts

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("kind", ("plugin",) + PRIOR_KINDS)
    def test_one_start_is_the_plain_run_less_its_repeats(self, kind, level):
        """A one-start fit is the plain, unmemoized L-BFGS-B run from
        ``xi = 0`` in every field but ``n_evals``, which counts that run's
        distinct points."""
        lv = assemble(_nested_pair(np.random.default_rng(38))).levels[level]
        opts = OptimOptions(seed=4, n_starts=1)
        lf = _fit_kind(lv, self.SPEC, kind, opts)
        func = _fitted_objective(lv, self.SPEC, kind)
        plain, points = plain_lbfgs_max(func, np.zeros(2), tol=opts.tol)
        np.testing.assert_array_equal(lf.xi, plain.x)
        np.testing.assert_array_equal(lf.phi, RangeParams.from_xi(plain.x).phi)
        assert lf.objective_value == plain.fun
        assert lf.start_values == (plain.fun,)
        assert lf.converged == plain.converged
        assert (lf.best_start, lf.n_failed_starts) == (0, 0)
        assert lf.n_evals == len({p.tobytes() for p in points}) <= plain.n_evals

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("seed", [37, 38])
    @pytest.mark.parametrize("kind", ("plugin",) + PRIOR_KINDS)
    def test_best_value_is_that_of_every_start(self, kind, seed, level):
        lv = assemble(_nested_pair(np.random.default_rng(seed))).levels[level]
        opts = OptimOptions(seed=4, n_starts=6)
        lf = _fit_kind(lv, self.SPEC, kind, opts)
        runs = every_start(_fitted_objective(lv, self.SPEC, kind), 2, opts, lv.index)
        best = max(r.fun for r in runs if r.fun > SENTINEL_THRESHOLD)
        assert lf.objective_value >= best - 1e-6 * max(1.0, abs(best))

    def test_uncorrelated_starts_count_as_failed(self):
        """Starts drawn where every correlation underflows stop at once on
        a zero gradient, on one value of the plug-in criterion; they fail,
        and their agreement never stops the level."""
        lv = assemble(_nested_pair(np.random.default_rng(37))).levels[0]
        opts = OptimOptions(seed=3, n_starts=4, start_low=20.0, start_high=25.0)
        runs = every_start(_fitted_objective(lv, self.SPEC, "plugin"), 2, opts, 1)
        assert all(r.n_evals == 1 and r.converged for r in runs[1:])
        assert runs[1].fun == runs[2].fun == runs[3].fun
        lf = _fit_kind(lv, self.SPEC, "plugin", opts)
        assert lf.start_values == tuple(r.fun for r in runs)
        assert lf.n_failed_starts == 3
        assert lf.best_start == 0

    def test_physical_unit_borehole_starts_all_fail(self):
        """Borehole inputs in physical units (spans 0.099 to 5.2e4): from
        every start of the default box, with phi between 0.05 and 20, every
        correlation underflows, so each plug-in start stops after one
        evaluation on a zero gradient, and the level has no fit."""
        U, low, _, _ = replicate_design(0, 1, 80, 30, 20)
        X = scale_to_box(U)[low]
        lv = assemble([(X, np.array([borehole_low(x) for x in X]))]).levels[0]
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=8)
        opts = OptimOptions(seed=5, n_starts=4)
        runs = every_start(_fitted_objective(lv, spec, "plugin"), 8, opts, 1)
        assert all(r.n_evals == 1 and r.converged for r in runs)
        with pytest.raises(EstimationError, match="all 4 optimizer starts failed"):
            _fit_kind(lv, spec, "plugin", opts)


class TestFit:
    def test_rejects_wrong_typed_arguments(self):
        pair = _nested_pair(np.random.default_rng(44))[0]
        data = assemble([pair])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        prior = PriorSpec(kind="reference")
        for args, name in (
            ((data, spec, "reference"), "prior"),
            ((data, None, prior), "spec"),
            (([pair], spec, prior), "data"),
            ((data, spec, prior, 5), "opts"),
        ):
            with pytest.raises(InvalidArgumentError, match=f"^{name} must be"):
                fit(*args)

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

    def test_constant_outputs_fail_but_tiny_noise_fits(self):
        """Constant outputs leave S2 at rounding noise against y^T R^-1 y
        at every range, so every start fails; 1e-9 of noise is real
        signal and fits."""
        rng = np.random.default_rng(450)
        X = rng.uniform(size=(20, 2))
        spec = KernelSpec(family=POWER_EXPONENTIAL, shape=1.9, dims=2)
        prior = PriorSpec(kind="reference")
        opts = OptimOptions(n_starts=2)
        with pytest.raises(EstimationError, match="degenerate data"):
            fit(assemble([(X, np.full(20, 3.7))]), spec, prior, opts)
        noisy = 3.7 + 1e-9 * rng.standard_normal(20)
        result = fit(assemble([(X, noisy)]), spec, prior, opts)
        assert result.level(1).converged

    def test_failure_report_names_level(self):
        rng = np.random.default_rng(43)
        X1 = rng.uniform(size=(10, 2))
        y1 = rng.standard_normal(10)
        X2 = X1[:6]
        data = assemble([(X1, y1), (X2, np.zeros(6))])
        spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
        with pytest.raises(EstimationError, match="level 2"):
            fit(data, spec, PriorSpec(kind="flat"), OptimOptions(n_starts=2))
