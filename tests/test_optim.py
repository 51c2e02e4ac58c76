"""The L-BFGS-B maximizer: convergence on smooth objectives, budget
handling, retreat from sentinels, and its memo of evaluated points and
agreement band against an unmemoized run."""

import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import oracles
from mfcokrig import optim as optim_module
from mfcokrig.exceptions import InvalidArgumentError, MfcokrigError
from mfcokrig.optim import lbfgs_max, nelder_mead_max
from oracles import plain_lbfgs_max


def test_the_retired_simplex_names_its_replacement():
    with pytest.raises(MfcokrigError, match="lbfgs_max"):
        nelder_mead_max(lambda x: 0.0, np.zeros(2))


def _rosenbrock(x, grad):
    """Negated Rosenbrock function, maximized at (1, 1), and its gradient."""
    a, b = x
    grad[0] = 2.0 * (1.0 - a) + 400.0 * a * (b - a * a)
    grad[1] = -200.0 * (b - a * a)
    return -((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2)


def _noisy_rosenbrock(x, grad):
    """``_rosenbrock`` with noise of 1e-4 in the value: L-BFGS-B ends it on
    line searches that return to points it has evaluated."""
    _rosenbrock(x, grad)
    a, b = x
    noise = 1e-4 * math.sin(1e9 * a + 3e8 * b)
    return -((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2) + noise


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

    def test_a_step_that_collapses_after_a_climb_starts_again(self):
        # the first step climbs from 0 to 1, the quasi-Newton steps to 5
        # and 17.5 overshoot the peak at 3 into the sentinels from 4, and
        # L-BFGS-B stops; a run started again from 1, its memory cleared,
        # reaches the peak
        calls = []

        def func(x, grad):
            calls.append(float(x[0]))
            if x[0] >= 4.0:
                grad[:] = 0.0
                return -1e300
            r = math.sqrt(1.0 + (x[0] - 3.0) ** 2)
            grad[:] = -(x - 3.0) / r
            return -r

        res = lbfgs_max(func, np.zeros(1))
        seen = calls.copy()
        assert seen[:3] == [0.0, 1.0, 5.0] and seen[4] == 2.0
        assert res.converged and res.x[0] == 3.0 and res.fun == -1.0
        # the plain run evaluates again the points the memo serves
        plain, points = plain_lbfgs_max(func, np.zeros(1))
        assert plain.converged and plain.x == res.x and plain.fun == res.fun
        assert sorted({p[0] for p in points}) == sorted(seen) and len(seen) == res.n_evals

    def test_a_stop_at_the_rounding_noise_is_converged(self):
        # noise of 1e-4 in the value: the run ends on a line search that
        # finds no decrease, a rounding-noise distance from the optimum
        res = lbfgs_max(_noisy_rosenbrock, np.array([-1.2, 1.0]), tol=1e-12)
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


def _half_space(x, grad):
    """A half-space of sentinels, with a zero gradient, next to the peak."""
    if x[0] > 1.0:
        grad[:] = 0.0
        return -1e300
    grad[:] = [-2.0 * (x[0] - 0.5), -2.0 * x[1]]
    return -float((x[0] - 0.5) ** 2 + x[1] ** 2)


def _collapse(x, grad):
    """Uphill into a half-space of sentinels."""
    if x[0] >= 1.0:
        grad[:] = 0.0
        return -1e300
    grad[:] = -2.0 * (x - 5.0)
    return -float((x[0] - 5.0) ** 2)


def _bowl(x, grad):
    grad[:] = -2.0 * (x - 0.7)
    return -float(np.sum((x - 0.7) ** 2))


RUNS = [
    (_bowl, [0.0, 0.0, 0.0], 1e-10),
    (_rosenbrock, [-1.2, 1.0], 1e-10),
    (_noisy_rosenbrock, [-1.2, 1.0], 1e-12),
    (_noisy_rosenbrock, [0.5, -0.5], 0.0),
    (_half_space, [0.9, 0.2], 1e-10),
    (_collapse, [0.0], 1e-8),
]


class TestLbfgsMemo:
    """``lbfgs_max`` evaluates each distinct point once, and is otherwise
    the plain, unmemoized L-BFGS-B run of ``oracles.plain_lbfgs_max``."""

    @pytest.mark.parametrize("func, x0, tol", RUNS)
    def test_is_the_plain_run_less_its_repeats(self, func, x0, tol):
        plain, points = plain_lbfgs_max(func, np.array(x0), tol=tol)
        res = lbfgs_max(func, np.array(x0), tol=tol)
        np.testing.assert_array_equal(res.x, plain.x)
        assert res.fun == plain.fun
        assert res.converged == plain.converged
        assert res.n_evals == len({p.tobytes() for p in points}) <= plain.n_evals

    def test_each_point_is_evaluated_once_and_repeats_are_served_bitwise(self, monkeypatch):
        """What L-BFGS-B receives at a point it evaluated before is, bit
        for bit, what it received there the first time."""
        real = optim_module.minimize
        received = []

        def logged_minimize(fun, x0, **kwargs):
            def logged(x):
                f, g = fun(x)
                received.append((x.tobytes(), np.float64(f).tobytes(), g.tobytes()))
                return f, g

            return real(logged, x0, **kwargs)

        monkeypatch.setattr(optim_module, "minimize", logged_minimize)
        calls = []

        def func(x, grad):
            calls.append(x.tobytes())
            return _noisy_rosenbrock(x, grad)

        res = lbfgs_max(func, np.array([-1.2, 1.0]), tol=1e-12)
        assert len(set(calls)) == len(calls) == res.n_evals
        # the run's final line searches come back to evaluated points
        assert len(received) > len(calls)
        first = {}
        for key, f, g in received:
            assert first.setdefault(key, (f, g)) == (f, g)
        assert list(first) == calls

    def test_served_repeats_are_free(self):
        """A budget counts calls of the objective only: the run that
        repeats points goes as far as a plain run with a larger budget."""
        plain, points = plain_lbfgs_max(_noisy_rosenbrock, np.array([-1.2, 1.0]), tol=1e-12)
        distinct = len({p.tobytes() for p in points})
        assert distinct < plain.n_evals
        res = lbfgs_max(_noisy_rosenbrock, np.array([-1.2, 1.0]), tol=1e-12, max_evals=distinct)
        np.testing.assert_array_equal(res.x, plain.x)
        assert res.n_evals == distinct and res.converged == plain.converged

    def test_a_served_sentinel_marks_the_last_line_search(self, monkeypatch):
        """A line-search driver that comes back to a sentinel point in its
        final search, after which it reports no decrease: the served
        sentinel, as an evaluated one in the plain run, means the step
        collapsed there.  The run rose from 0 to 0.6 first, so it starts
        again from 0.6, where every point the driver tries is a sentinel
        and the best stays put; neither run is converged."""

        def scripted(fun, x0, callback, **kwargs):
            a, b, s = x0 + 0.5, x0 + 0.6, x0 + 2.0
            for x in (x0, s, a):
                fun(x)
            callback(a)
            fun(b)
            callback(b)
            fun(s)
            f, g = fun(b)
            return OptimizeResult(x=b, fun=f, jac=g, status=2)

        monkeypatch.setattr(optim_module, "minimize", scripted)
        monkeypatch.setattr(oracles, "minimize", scripted)
        calls = []

        def func(x, grad):
            calls.append(x.copy())
            return _collapse(x, grad)

        res = lbfgs_max(func, np.zeros(1))
        # 0.6 is served in the second run, which adds 2.6, 1.1 and 1.2
        assert len(calls) == 4 + 3 and _collapse(calls[1], np.empty(1)) == -1e300
        assert all(_collapse(x, np.empty(1)) == -1e300 for x in calls[4:])
        plain, _ = plain_lbfgs_max(_collapse, np.zeros(1))
        assert not plain.converged
        assert res.converged == plain.converged
        np.testing.assert_array_equal(res.x, plain.x)


class TestAgreementBand:
    """A run given an agreement band ends at the first evaluation whose
    running best lies in the band; the oracle is the full run's log."""

    @staticmethod
    def _logged_run(func, x0, tol):
        values = []

        def logged(x, grad):
            values.append(func(x, grad))
            return values[-1]

        return lbfgs_max(logged, x0, tol=tol), np.maximum.accumulate(values)

    @pytest.mark.parametrize("func, x0, tol", RUNS[:4])
    def test_ends_at_the_first_running_best_inside(self, func, x0, tol):
        x0 = np.array(x0)
        _, running = self._logged_run(func, x0, tol)
        rises = np.flatnonzero(np.diff(running) > 0) + 1
        for k in rises[:: max(1, rises.size // 6)]:
            above = np.nextafter(running[k - 1], np.inf)
            for band in ((running[k], running[k]), (above, running[k] + 1.0)):
                cut = lbfgs_max(func, x0, tol=tol, band=band)
                assert cut.n_evals == k + 1
                assert cut.fun == running[k]
                assert not cut.converged

    @pytest.mark.parametrize("func, x0, tol", RUNS)
    def test_a_band_the_running_best_never_enters_changes_nothing(self, func, x0, tol):
        x0 = np.array(x0)
        full, running = self._logged_run(func, x0, tol)
        above = running[-1] + 1.0
        # below the start's value, above the best, and between two
        # consecutive running bests
        bands = [(running[0] - 2.0, running[0] - 1.0), (above, above + 1.0)]
        gaps = np.flatnonzero(np.diff(running) > 0)
        if gaps.size:
            k = gaps[0]
            bands.append((np.nextafter(running[k], np.inf), np.nextafter(running[k + 1], -np.inf)))
        for band in bands:
            res = lbfgs_max(func, x0, tol=tol, band=band)
            np.testing.assert_array_equal(res.x, full.x)
            assert (res.fun, res.n_evals, res.converged) == (
                full.fun, full.n_evals, full.converged
            )
