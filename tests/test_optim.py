"""Simplex and L-BFGS-B maximizers: convergence on smooth objectives,
budget handling, and sentinel repulsion."""

import math

import numpy as np
import pytest

from mfcokrig.exceptions import InvalidArgumentError
from mfcokrig.optim import lbfgs_max, nelder_mead_max


class TestNelderMeadMax:
    def test_quadratic_bowl(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            target = rng.uniform(-2.0, 2.0, size=d)

            def func(x):
                return -float(np.sum((x - target) ** 2))

            res = nelder_mead_max(func, np.zeros(d), tol=1e-12)
            assert res.converged
            np.testing.assert_allclose(res.x, target, atol=1e-4)
            assert res.fun == pytest.approx(0.0, abs=1e-8)

    def test_anisotropic_objective(self):
        # banana-shaped ridge, maximized at (1, 1)
        def func(x):
            return -((1.0 - x[0]) ** 2 + 5.0 * (x[1] - x[0] ** 2) ** 2)

        res = nelder_mead_max(func, np.array([-1.0, 1.5]), tol=1e-13)
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-3)

    def test_respects_evaluation_budget(self):
        calls = 0

        def func(x):
            nonlocal calls
            calls += 1
            return -float(x @ x)

        res = nelder_mead_max(func, np.full(3, 5.0), max_evals=40, tol=0.0)
        assert calls == 40
        assert res.n_evals == calls
        assert not res.converged

    def test_budget_smaller_than_initial_simplex(self):
        # with room for a single evaluation, the start point is returned
        res = nelder_mead_max(lambda x: -float(x @ x), np.array([2.0, 3.0]), max_evals=1)
        assert res.n_evals == 1
        np.testing.assert_array_equal(res.x, [2.0, 3.0])

    def test_returns_best_ever_point(self):
        # an objective with a spike the simplex steps over: the best
        # evaluated point must be reported even if later moves leave it
        seen = []

        def func(x):
            v = -float(x @ x)
            if 0.9 < x[0] < 1.1:
                v += 100.0
            seen.append((x.copy(), v))
            return v

        res = nelder_mead_max(func, np.array([1.0, 0.0]), max_evals=60)
        best = max(v for _, v in seen)
        assert res.fun == best

    def test_sentinel_regions_are_repelled(self):
        # half-space of sentinels; the optimum sits at the feasible peak
        def func(x):
            if x[0] > 1.0:
                return -1e300
            return -float((x[0] - 0.5) ** 2 + x[1] ** 2)

        res = nelder_mead_max(func, np.array([0.9, 0.2]), tol=1e-12)
        assert res.fun > -1e299
        np.testing.assert_allclose(res.x, [0.5, 0.0], atol=1e-4)

    def test_rejects_bad_start(self):
        with pytest.raises(InvalidArgumentError):
            nelder_mead_max(lambda x: 0.0, np.array([np.nan, 1.0]))
        with pytest.raises(InvalidArgumentError):
            nelder_mead_max(lambda x: 0.0, np.zeros((2, 2)))

    def test_deterministic(self):
        def func(x):
            return -float(np.sum(np.abs(x - 0.3) ** 1.5))

        a = nelder_mead_max(func, np.zeros(2))
        b = nelder_mead_max(func, np.zeros(2))
        np.testing.assert_array_equal(a.x, b.x)
        assert a.fun == b.fun
        assert a.n_evals == b.n_evals


def _rosenbrock(x, grad):
    """Negated Rosenbrock function, maximized at (1, 1), and its gradient."""
    a, b = x
    grad[0] = 2.0 * (1.0 - a) + 400.0 * a * (b - a * a)
    grad[1] = -200.0 * (b - a * a)
    return -((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2)


class TestLbfgsMax:
    def test_quadratic_bowl(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            target = rng.uniform(-2.0, 2.0, size=d)

            def func(x, grad):
                grad[:] = -2.0 * (x - target)
                return -float(np.sum((x - target) ** 2))

            res = lbfgs_max(func, np.zeros(d), tol=1e-10)
            assert res.converged
            np.testing.assert_allclose(res.x, target, atol=1e-8)

    def test_anisotropic_objective(self):
        res = lbfgs_max(_rosenbrock, np.array([-1.2, 1.0]), tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)

    def test_budget_is_never_exceeded(self):
        # scipy checks its own maxfun only between iterations, so a line
        # search could overrun it; the wrapper stops at the budget exactly
        for max_evals in range(1, 40):
            calls = 0

            def func(x, grad):
                nonlocal calls
                calls += 1
                return _rosenbrock(x, grad)

            res = lbfgs_max(func, np.array([-1.2, 1.0]), tol=0.0, max_evals=max_evals)
            assert calls == res.n_evals <= max_evals
            # the Rosenbrock run needs more evaluations than that
            assert not res.converged

    def test_default_budget_is_spent_in_full_by_a_start_that_never_stops(self):
        # a slope that never levels off: no stop test ends the run
        for d in (1, 3):
            def func(x, grad):
                grad.fill(1.0)
                return float(x.sum())

            res = lbfgs_max(func, np.zeros(d), tol=0.0)
            assert res.n_evals == 500 * (d + 1)
            assert not res.converged

    def test_budget_of_one_returns_the_start(self):
        points = []

        def func(x, grad):
            points.append(x.copy())
            return _rosenbrock(x, grad)

        res = lbfgs_max(func, np.array([2.0, 3.0]), max_evals=1)
        assert res.n_evals == 1 and len(points) == 1
        np.testing.assert_array_equal(res.x, [2.0, 3.0])
        assert res.fun == _rosenbrock(np.array([2.0, 3.0]), np.empty(2))
        assert not res.converged

    def test_returns_best_ever_point(self):
        seen = []

        def func(x, grad):
            v = _rosenbrock(x, grad)
            seen.append(v)
            return v

        res = lbfgs_max(func, np.array([-1.2, 1.0]), max_evals=25)
        assert res.fun == max(seen)

    def test_sentinel_regions_are_retreated_from(self):
        # a half-space of sentinels with a zero gradient; the optimum sits
        # at the feasible peak next to it
        def func(x, grad):
            if x[0] > 1.0:
                grad[:] = 0.0
                return -1e300
            grad[:] = [-2.0 * (x[0] - 0.5), -2.0 * x[1]]
            return -float((x[0] - 0.5) ** 2 + x[1] ** 2)

        res = lbfgs_max(func, np.array([0.9, 0.2]), tol=1e-10)
        assert res.fun > -1e299
        np.testing.assert_allclose(res.x, [0.5, 0.0], atol=1e-6)
        # it stopped on the gradient test, having left the sentinels behind
        assert res.converged

    def test_a_step_that_collapses_at_a_sentinel_is_not_converged(self):
        # uphill runs into a half-space of sentinels: the first line search
        # meets one and falls back to the start, and the relative-reduction
        # test then stops a run whose gradient is still 8 to 10
        def func(x, grad):
            if x[0] >= 1.0:
                grad[:] = 0.0
                return -1e300
            grad[:] = -2.0 * (x - 5.0)
            return -float((x[0] - 5.0) ** 2)

        res = lbfgs_max(func, np.zeros(1))
        assert res.fun > -1e299 and res.x[0] < 1.0
        assert not res.converged

    def test_a_stop_at_the_rounding_noise_is_converged(self):
        # noise of 1e-4 in the value: the run ends on a line search that
        # finds no decrease, a rounding-noise distance from the optimum
        def func(x, grad):
            _rosenbrock(x, grad)
            a, b = x
            noise = 1e-4 * math.sin(1e9 * a + 3e8 * b)
            return -((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2) + noise

        res = lbfgs_max(func, np.array([-1.2, 1.0]), tol=1e-12)
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=2e-2)

    def test_all_sentinel_start_returns_the_sentinel(self):
        def func(x, grad):
            grad[:] = 0.0
            return -1e300

        res = lbfgs_max(func, np.array([0.3, -0.2]))
        assert res.fun == -1e300
        assert res.n_evals >= 1
        assert not res.converged

    def test_rejects_bad_start(self):
        with pytest.raises(InvalidArgumentError):
            lbfgs_max(_rosenbrock, np.array([np.nan, 1.0]))
        with pytest.raises(InvalidArgumentError):
            lbfgs_max(_rosenbrock, np.zeros((2, 2)))

    def test_deterministic(self):
        a = lbfgs_max(_rosenbrock, np.array([-1.2, 1.0]))
        b = lbfgs_max(_rosenbrock, np.array([-1.2, 1.0]))
        np.testing.assert_array_equal(a.x, b.x)
        assert a.fun == b.fun and a.n_evals == b.n_evals
