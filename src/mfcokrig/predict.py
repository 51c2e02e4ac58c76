"""Closed-form recursive prediction and sequential predictive sampling.

Given fitted range parameters, the predictive distribution of the output at
every fidelity level is available in closed form: level one is exactly
universal kriging with a Student-t predictive, and each higher level adds
the scale-linked lower-level prediction to its mean and propagates both the
lower-level variance and the estimation uncertainty of the trend and scale
coefficients into its variance.

Sampling follows the conditional route: draw the level-one output from its
Student-t, then feed each draw into the next level's conditional Student-t,
whose mean is linear and whose scale is quadratic in the lower draw.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.stats import t as student_t

from .estimate import CokrigingData, FitResult, _is_int, coincident_rows
from .exceptions import DesignRankError, InvalidArgumentError, VarianceUndefinedError
from .gp import gls_fit
from .kernels import RangeParams, cross_corr

# a whitened scale-link column that keeps less than this share of its
# squared norm once the basis is projected out is collinear with the basis,
# making the scale coefficient unidentifiable
MIN_SCALE_LINK_NORM = 1e-12

# interval draws are taken for a block of query rows at a time, sized so the
# block's draws hold at most this many bytes
DRAW_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True, eq=False)
class Prediction:
    """Batched predictive moments.

    Column ``t-1`` of each array belongs to fidelity level ``t``.

    Attributes
    ----------
    means : ndarray, shape (m, s)
    variances : ndarray or None, shape (m, s)
        ``None`` when only means were requested.
    dfs : ndarray, shape (s,)
        Student-t degrees of freedom per level.
    at_design : ndarray of bool, shape (m, s)
        Whether each query coincides with a design point of that level.
    """

    means: np.ndarray
    variances: np.ndarray
    dfs: np.ndarray
    at_design: np.ndarray

    @property
    def s(self):
        return self.means.shape[1]


@dataclass(frozen=True, eq=False)
class _LevelState:
    """Prediction-time cache for one level."""

    data: object
    params: RangeParams
    fact: object
    sigma2_pred: float  # S2 / (n - q), the Student-t scale estimate
    gamma: float  # scale link to the level below; 0.0 at level one
    minv_qq: float  # last diagonal entry of (X^T R^-1 X)^-1


class CokrigingModel:
    """Fitted multifidelity emulator ready for prediction and sampling.

    Construction factorizes each level once at its fitted ranges; every
    subsequent query costs two triangular solves per level.
    """

    def __init__(self, data, fit_result):
        if not isinstance(data, CokrigingData):
            raise InvalidArgumentError("data must be CokrigingData")
        if not isinstance(fit_result, FitResult):
            raise InvalidArgumentError("fit_result must be a FitResult")
        if fit_result.s != data.s:
            raise InvalidArgumentError(
                f"fit has {fit_result.s} levels but data has {data.s}"
            )
        self.data = data
        self.fit_result = fit_result
        self.spec = fit_result.spec
        states = []
        for lv, lf in zip(data.levels, fit_result.levels):
            if lv.basis_fn is None:
                raise InvalidArgumentError(
                    f"level {lv.index} has no basis callable; prediction needs "
                    "a basis evaluable at new points"
                )
            params = RangeParams(lf.phi)
            fact = gls_fit(lv, params, self.spec)
            # the last diagonal entry of M^-1 for M = L L^T is 1 / L_qq^2;
            # above level one L_qq^2 = W^T Q_H W, the squared norm of the
            # whitened scale-link column with the basis projected out
            tail = fact.chol_M[-1, -1] ** 2
            gamma = 0.0
            if lv.index > 1:
                gamma = float(fact.b_hat[-1])
                w = fact.white_design[:, -1]
                if tail <= MIN_SCALE_LINK_NORM * (w @ w):
                    raise DesignRankError(
                        f"level {lv.index} lower-level outputs are collinear "
                        "with the basis; the scale link is unidentifiable"
                    )
            states.append(
                _LevelState(
                    data=lv,
                    params=params,
                    fact=fact,
                    sigma2_pred=fact.S2 / (lv.n - lv.q),
                    gamma=gamma,
                    minv_qq=float(1.0 / tail),
                )
            )
        self._states = states

    @property
    def s(self):
        return self.data.s

    @property
    def dfs(self):
        return np.array([lv.n - lv.q for lv in self.data.levels], dtype=np.intp)

    def _check_queries(self, X0):
        X0 = np.ascontiguousarray(X0, dtype=np.float64)
        if X0.ndim == 1:
            X0 = X0[None, :]
        if X0.ndim != 2 or X0.shape[1] != self.data.dims:
            raise InvalidArgumentError(
                f"queries must be (m, {self.data.dims}), got shape {X0.shape}"
            )
        if not np.all(np.isfinite(X0)):
            raise InvalidArgumentError("queries contain non-finite entries")
        return X0

    def _pieces(self, st, X0, y_link):
        """Query pieces of one level for every row of ``X0``: one
        cross-correlation block and one triangular solve.

        Returns ``(trend, resid, c_base, U, G)``: the basis part of the
        mean, the kriged residual, the correlation part of the scale,
        ``U = F - W^T L^-1 C`` of shape ``(q, m)`` and ``G = M^-1 U``.
        Above level one the last row of ``F`` is ``y_link``, the value the
        scale link multiplies.
        """
        lv, fact = st.data, st.fact
        C = cross_corr(lv.inputs, X0, st.params, self.spec)
        Sw = solve_triangular(fact.chol_R, C, lower=True, check_finite=False)
        H0 = np.asarray(lv.basis_fn(X0), dtype=np.float64)
        resid = Sw.T @ fact.white_resid
        if lv.index == 1:
            trend = H0 @ fact.b_hat
            F = H0.T
        else:
            trend = H0 @ fact.b_hat[:-1]
            F = np.vstack([H0.T, y_link])
        c_base = (1.0 + self.spec.nugget) - np.einsum("ij,ij->j", Sw, Sw)
        U = F - fact.white_design.T @ Sw
        G = cho_solve((fact.chol_M, True), U, check_finite=False)
        return trend, resid, c_base, U, G

    def predict(self, X0, mean_only=False):
        """Predictive means and variances at every level for each query row.

        Requires ``n - q > 2`` at every level unless ``mean_only``.
        """
        X0 = self._check_queries(X0)
        m = X0.shape[0]
        s = self.s
        means = np.empty((m, s))
        variances = None if mean_only else np.empty((m, s))
        at_design = np.empty((m, s), dtype=bool)
        y_prev = None
        v_prev = np.zeros(m)
        for t, st in enumerate(self._states):
            lv = st.data
            df = lv.n - lv.q
            if not mean_only and df <= 2:
                raise VarianceUndefinedError(
                    f"level {lv.index} has n - q = {df} <= 2; variances are "
                    "undefined (request mean_only for means)"
                )
            trend, resid, c_base, U, G = self._pieces(st, X0, y_prev)
            if t == 0:
                mu = trend + resid
            else:
                mu = trend + st.gamma * y_prev + resid
            means[:, t] = mu
            at_design[:, t] = coincident_rows(X0, lv.inputs).any(axis=1)
            if not mean_only:
                quad = np.einsum("ij,ij->j", U, G)
                c_star = c_base + quad + v_prev * st.minv_qq
                np.maximum(c_star, 0.0, out=c_star)
                v = st.gamma**2 * v_prev + (df / (df - 2.0)) * st.sigma2_pred * c_star
                variances[:, t] = v
                v_prev = v
            y_prev = mu
        return Prediction(
            means=means, variances=variances, dfs=self.dfs, at_design=at_design
        )

    def _draw_pieces(self, X0):
        """Per level, the mean part and the coefficients of the conditional
        scale ``c0 + c1 y + c2 y^2`` in the lower-level value ``y``, for
        every row of ``X0``; at level one the scale is the constant ``c0``."""
        zeros = np.zeros(X0.shape[0])
        out = []
        for st in self._states:
            trend, resid, c_base, U, G = self._pieces(st, X0, zeros)
            c0 = c_base + np.einsum("ij,ij->j", U, G)
            out.append((trend + resid, c0, 2.0 * G[-1]))
        return out

    def _draws(self, pieces, rows, seeds, n_draws):
        """Sequential joint draws at the query rows ``rows`` of ``pieces``,
        row ``rows[k]`` from a generator seeded ``seeds[k]``; returns
        ``(len(rows), n_draws, s)``.

        Each row's generator yields all of level one's Student-t variates,
        then level two's, and so on, whatever the block of rows.
        """
        draws = np.empty((len(rows), n_draws, self.s))
        dfs = [st.data.n - st.data.q for st in self._states]
        for k, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            for t, df in enumerate(dfs):
                draws[k, :, t] = rng.standard_t(df, size=n_draws)
        y_prev = None
        for t, (st, (mu, c0, c1)) in enumerate(zip(self._states, pieces)):
            mu, c0, c1 = mu[rows, None], c0[rows, None], c1[rows, None]
            if t == 0:
                c_star = np.maximum(c0, 0.0)
            else:
                mu = mu + st.gamma * y_prev
                c_star = np.maximum(c0 + c1 * y_prev + st.minv_qq * y_prev**2, 0.0)
            level = draws[:, :, t]
            level *= np.sqrt(st.sigma2_pred * c_star)
            level += mu
            y_prev = level
        return draws

    @staticmethod
    def _check_n_draws(n_draws):
        if not _is_int(n_draws) or n_draws < 1:
            raise InvalidArgumentError(f"n_draws must be an integer >= 1, got {n_draws!r}")
        return int(n_draws)

    def sample_predictive(self, x0, n_draws, seed=0):
        """Draws from the joint predictive distribution at one point.

        Returns an ``(n_draws, s)`` matrix whose column ``t-1`` holds level
        ``t``.  Level one is sampled from its Student-t; each later level is
        sampled conditionally on the previous level's draw, whose value
        shifts the mean linearly and widens the scale quadratically.
        Deterministic given ``seed``.
        """
        x0 = self._check_queries(x0)
        if x0.shape[0] != 1:
            raise InvalidArgumentError("sampling takes a single query point")
        n_draws = self._check_n_draws(n_draws)
        return self._draws(self._draw_pieces(x0), [0], [seed], n_draws)[0]

    def credible_intervals(self, X0, prob=0.95, n_draws=4000, seed=0):
        """Equal-tail predictive intervals at every level for each query row.

        Returns an ``(m, s, 2)`` array of lower and upper bounds.  Level
        one uses exact Student-t quantiles; higher levels use empirical
        quantiles of ``n_draws`` sequential draws, those of row ``i``
        seeded ``seed + i``, so row ``i`` reads as ``sample_predictive(X0[i],
        n_draws, seed=seed + i)`` would.
        """
        if not 0.0 < prob < 1.0:
            raise InvalidArgumentError(f"prob must lie in (0, 1), got {prob}")
        if not _is_int(seed) or seed < 0:
            raise InvalidArgumentError(f"seed must be an integer >= 0, got {seed!r}")
        X0 = self._check_queries(X0)
        n_draws = self._check_n_draws(n_draws)
        m, s = X0.shape[0], self.s
        tails = np.array([0.5 * (1.0 - prob), 0.5 * (1.0 + prob)])
        pieces = self._draw_pieces(X0)
        out = np.empty((m, s, 2))
        st = self._states[0]
        mu, c0, _ = pieces[0]
        scale = np.sqrt(st.sigma2_pred * np.maximum(c0, 0.0))
        out[:, 0, :] = mu[:, None] + scale[:, None] * student_t.ppf(tails, self.dfs[0])
        if s > 1:
            block = max(1, DRAW_BLOCK_BYTES // (8 * n_draws * s))
            for start in range(0, m, block):
                rows = np.arange(start, min(start + block, m))
                seeds = [seed + int(i) for i in rows]
                draws = self._draws(pieces, rows, seeds, n_draws)
                q = np.quantile(draws[:, :, 1:], tails, axis=1)
                out[rows, 1:, :] = np.moveaxis(q, 0, -1)
        return out

    def credible_interval(self, x0, level, prob=0.95, n_draws=4000, seed=0):
        """Equal-tail predictive interval at one point and level.

        The entry ``[0, level - 1]`` of ``credible_intervals`` at ``x0``.
        """
        if not _is_int(level) or not 1 <= level <= self.s:
            raise InvalidArgumentError(
                f"level must be an integer in [1, {self.s}], got {level!r}"
            )
        x0 = self._check_queries(x0)
        if x0.shape[0] != 1:
            raise InvalidArgumentError("an interval takes a single query point")
        lo, hi = self.credible_intervals(x0, prob, n_draws, seed)[0, level - 1]
        return float(lo), float(hi)
