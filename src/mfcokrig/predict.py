"""Closed-form recursive prediction and sequential predictive sampling.

Given fitted range parameters, the predictive distribution of the output at
every fidelity level is available in closed form: level one is exactly
universal kriging with a Student-t predictive, and each higher level adds
the scale-linked lower-level prediction to its mean and propagates both the
lower-level variance and the estimation uncertainty of the trend and scale
coefficients into its variance.

Every read path starts from one centred piece ``(mu, Q0, yc)`` per level
and query row.  Given the lower-level value ``y``, level ``t`` is the
Student-t ``mu + gamma*y + sqrt(S*Q(y))*e`` with conditional scale
``Q(y) = Q0 + q*(y - yc)^2``, where ``S`` is the level's scale estimate
and ``q`` the last diagonal entry of ``(X^T R^-1 X)^-1``; at level one the
scale is the constant ``Q0`` and ``yc`` is None.  So ``predict`` gives, for
a lower level of mean ``ybar`` and variance ``v``, the mean ``mu +
gamma*ybar`` and the variance

    gamma^2 v + df/(df - 2) * S * (Q0 + q*((ybar - yc)^2 + v)).

Sampling follows the conditional route: draw the level-one output from its
Student-t, then feed each draw into the next level's conditional Student-t.

Credible intervals need quantiles of the predictive, which above level one
is a Student-t mixed over the level below.  Its CDF is a one-dimensional
tanh-sinh sum per level, with nodes in a Student-t CDF scale, and each
bound is found by a safeguarded Newton solve on that CDF; no draws are
taken.  For a fixed innovation ``e`` of level ``t`` the event ``y_t <= z``
is a quadratic inequality in the lower value, so

    F_t(z) = sum_k w_k P(y_{t-1} in J(z, e_k)),

an interval probability of ``F_{t-1}`` at closed-form roots.  Where the
level-``t`` scale outweighs the spread the lower level passes up (a query
at a lower-level design point, say) the sum runs over the lower levels'
nodes instead, each term a closed-form Student-t CDF.  Either way level
``t`` costs the product of the lower levels' node counts per query row.
Each CDF carries an error estimate, and a bound whose estimate is too large
is solved again on rules of half the step.

The Student-t CDF at the quadrature's nodes is a sum of weighted values
solved against an absolute tolerance, so it needs absolute, not relative,
accuracy.  Every level's degrees of freedom ``n - q`` are an integer, so
up to ``SERIES_MAX_DF`` it is the finite trigonometric series of
``_t_cdf`` (about 5e-15 absolute at that limit), which costs less than
``scipy.special.stdtr`` there; above it, ``stdtr``.  scipy stays where
relative accuracy in a far tail matters or the calls are a few scalars:
the rules' ``stdtrit`` nodes, the tail mass beyond ``e_star``, the tail
rule's limits, level-one quantiles and the Newton starts.  The tail masses
go through ``_t_tail``, which takes one degree of freedom in closed form.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln, stdtr, stdtrit

from .estimate import check_fit, coincident_rows
from .exceptions import (
    DesignRankError,
    InvalidArgumentError,
    VarianceUndefinedError,
    is_int,
    is_real,
    real_array,
)
from .gp import gls_fit
from .kernels import RangeParams, cross_corr

# a whitened scale-link column that keeps less than this share of its
# squared norm once the basis is projected out is collinear with the basis,
# making the scale coefficient unidentifiable
MIN_SCALE_LINK_NORM = 1e-12

# tanh-sinh rules of the interval quadrature: step and half-width in the
# rule's own variable; a rule has 2 * round(QUAD_HALF_WIDTH / step) + 1
# nodes.  Heavier Student-t tails put more of the integrand's change near
# the ends of the CDF scale, so below STEP_DF degrees of freedom the step
# shrinks as sqrt(df / STEP_DF)
QUAD_STEP = 0.2
STEP_DF = 40
QUAD_HALF_WIDTH = 3.0

# innovation tails beyond the leading-coefficient sign change are skipped
# when they hold less probability than this
TAIL_MASS = 1e-15

# a bound whose CDF moves by more than this between a rule and the rule of
# twice its step is solved again with every step halved, at most
# MAX_REFINE times.  The distance measures the coarser rule: on the test
# models, the finer rule's error stayed below 1e-10 wherever the distance
# stayed below this
QUAD_TOL = 1e-7
MAX_REFINE = 2

# interval bounds are solved for a block of query rows at a time, sized so
# one node array of the block holds at most this many bytes; the solve keeps
# a few dozen such arrays alive.  The rules are built once per refinement
# for all blocks, but each block pays about 0.26 ms of small-array calls
# (Newton bookkeeping, root algebra, the series set-up) against about 7 us
# per extra row of a two-level model.  Sweeping 8 KB to 1 MB over the
# perfbench grids (seed 1, one core of a 2 MB-L2 x86-64, bounds
# bit-identical at every size), the 1050-row solve took 20.6 ms at 32 KB,
# 15.1 at 64 KB, 12.9 at 128 KB, 14.1 at 256 KB and 15.2 at 1 MB, where
# the live arrays outgrow the L2; the 220-row solves 3.1 -> 2.1 ms
# (borehole_ref) and 4.8 -> 2.9 ms (plugin_n200) from 32 to 128 KB, flat
# beyond.  The two- and three-level test models did not move past 32 KB:
# their blocks are a few rows, or one row of a product rule
QUAD_BLOCK_BYTES = 1 << 17

# Newton steps, with bisection and bracket expansion as the safeguard,
# allowed per interval bound; a bound takes one to five
MAX_SOLVE_STEPS = 200

# the quadrature's Student-t CDF sums a series of df // 2 terms up to this
# many degrees of freedom, and calls scipy's stdtr above it: per node the
# series costs about df array passes against a near-constant cost for
# stdtr, and on 4096-node arrays the two took the same time between 550
# and 600 degrees of freedom (x86-64, one core, scipy 1.17)
SERIES_MAX_DF = 560
_MAX_FLOAT = np.finfo(np.float64).max


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
    df: int  # n - q, the Student-t degrees of freedom
    sigma2_pred: float  # S2 / df, the Student-t scale estimate
    gamma: float  # scale link to the level below; 0.0 at level one
    minv_qq: float  # last diagonal entry of (X^T R^-1 X)^-1


class CokrigingModel:
    """Fitted multifidelity emulator ready for prediction and sampling.

    Construction factorizes each level once at its fitted ranges; every
    subsequent query costs two triangular solves per level.
    """

    def __init__(self, data, fit_result):
        check_fit(data, fit_result)
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
            df = lv.n - lv.q
            states.append(
                _LevelState(
                    data=lv,
                    params=params,
                    fact=fact,
                    df=df,
                    sigma2_pred=fact.S2 / df,
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
        return np.array([st.df for st in self._states], dtype=np.intp)

    def _check_queries(self, X0):
        X0 = real_array(X0, "queries")
        if X0.ndim == 1:
            X0 = X0[None, :]
        if X0.ndim != 2 or X0.shape[1] != self.data.dims:
            raise InvalidArgumentError(
                f"queries must be (m, {self.data.dims}), got shape {X0.shape}"
            )
        if X0.shape[0] == 0:
            raise InvalidArgumentError("queries must contain at least one row")
        if not np.all(np.isfinite(X0)):
            raise InvalidArgumentError("queries contain non-finite entries")
        return X0

    def _pieces(self, X0):
        """Per level, the centred piece ``(mu, Q0, yc)`` of every row of
        ``X0`` (module docstring), and the ``(m, s)`` mask of the rows that
        coincide with a design point of each level: one cross-correlation
        block and one triangular solve against each of ``chol_R`` and
        ``chol_M``.

        With ``U = F - W^T L_R^-1 C``, whose basis rows ``F`` are the basis
        at ``X0`` and whose link row is zero, and ``Z = L_M^-1 U``, the
        conditional scale is ``c_base + |Z|^2``; the lower value ``y``
        enters only the last entry of ``Z``, as ``y / L_qq``.  So ``Q0``,
        the least scale over ``y``, drops that entry, and ``yc`` is the
        value that attains it.

        ``c_base = (1 + g) - |L_R^-1 c|^2``, with ``g`` the nugget, cancels
        to about ``2g`` at a design row ``x_i``.  There ``c = R e_i - g e_i``
        exactly, so it takes its closed form ``2g - g^2 (R^-1)_ii``, which
        does not depend on the other rows of the solve.
        """
        g = self.spec.nugget
        at_design = np.empty((X0.shape[0], self.s), dtype=bool)
        out = []
        for st, at in zip(self._states, at_design.T):
            lv, fact, L = st.data, st.fact, st.fact.chol_M
            C = cross_corr(lv.inputs, X0, st.params, self.spec)
            Sw = solve_triangular(fact.chol_R, C, lower=True, check_finite=False)
            H0 = np.asarray(lv.basis_fn(X0), dtype=np.float64)
            k = H0.shape[1]
            mu = H0 @ fact.b_hat[:k] + Sw.T @ fact.white_resid
            U = -(fact.white_design.T @ Sw)
            U[:k] += H0.T
            Z = solve_triangular(L, U, lower=True, check_finite=False)
            c_base = (1.0 + g) - np.einsum("ij,ij->j", Sw, Sw)
            # the (n, m) blocks go before the design-row match and the next
            # level build blocks of their own
            del C, Sw
            hits = coincident_rows(X0, lv.inputs)
            at[:] = hits.any(axis=1)
            if at.any():
                # (R^-1)_ii = |L_R^-1 e_i|^2
                E = np.zeros((lv.n, int(at.sum())))
                E[hits[at].argmax(axis=1), np.arange(E.shape[1])] = 1.0
                E = solve_triangular(fact.chol_R, E, lower=True, check_finite=False)
                c_base[at] = g * (2.0 - g * np.einsum("ij,ij->j", E, E))
            Q0 = c_base + np.einsum("ij,ij->j", Z[:k], Z[:k])
            out.append((mu, Q0, None if lv.index == 1 else -Z[-1] * L[-1, -1]))
        return out, at_design

    def _moments(self, pieces, at_design, mean_only):
        """``predict``'s ``Prediction`` from the ``_pieces`` output."""
        m, s = at_design.shape
        means = np.empty((m, s))
        variances = None if mean_only else np.empty((m, s))
        y = v = 0.0
        for t, (st, (mu, Q0, yc)) in enumerate(zip(self._states, pieces)):
            if not mean_only and st.df <= 2:
                raise VarianceUndefinedError(
                    f"level {st.data.index} has n - q = {st.df} <= 2; variances "
                    "are undefined (request mean_only for means)"
                )
            if yc is not None:
                mu = mu + st.gamma * y
                Q0 = Q0 + st.minv_qq * ((y - yc) ** 2 + v)
            means[:, t] = y = mu
            if not mean_only:
                c_star = np.maximum(Q0, 0.0)
                v = st.gamma**2 * v + (st.df / (st.df - 2.0)) * st.sigma2_pred * c_star
                variances[:, t] = v
        return Prediction(
            means=means, variances=variances, dfs=self.dfs, at_design=at_design
        )

    def _intervals(self, pieces, prob):
        """``credible_intervals``' bounds from the ``_pieces`` output."""
        m, s = pieces[0][0].size, self.s
        tails = np.array([0.5 * (1.0 - prob), 0.5 * (1.0 + prob)])
        out = np.empty((m, s, 2))
        st = self._states[0]
        mu, Q0, _ = pieces[0]
        scale = np.sqrt(st.sigma2_pred * np.maximum(Q0, 0.0))
        out[:, 0, :] = mu[:, None] + scale[:, None] * stdtrit(st.df, tails)
        rule_sets = {}
        for t in range(1, s):
            out[:, t, :] = _quantiles(self._states, pieces, t, tails, rule_sets)
        return out

    def _read(self, X0, prob):
        """``(predict(X0), credible_intervals(X0, prob))`` from one pass
        over ``X0``: the pieces both start from are formed once."""
        X0 = self._check_queries(X0)
        pieces, at_design = self._pieces(X0)
        return self._moments(pieces, at_design, False), self._intervals(pieces, prob)

    def predict(self, X0, mean_only=False):
        """Predictive means and variances at every level for each query row.

        Requires ``n - q > 2`` at every level unless ``mean_only``, which
        must be a bool.
        """
        if not isinstance(mean_only, (bool, np.bool_)):
            raise InvalidArgumentError(f"mean_only must be a bool, got {mean_only!r}")
        X0 = self._check_queries(X0)
        return self._moments(*self._pieces(X0), mean_only)

    def sample_predictive(self, x0, n_draws, seed=0):
        """Draws from the joint predictive distribution at one point.

        Returns an ``(n_draws, s)`` matrix whose column ``t-1`` holds level
        ``t``.  Level one is sampled from its Student-t; each later level is
        sampled conditionally on the previous level's draw, whose value
        shifts the mean linearly and widens the scale quadratically.
        Deterministic given ``seed``, an integer >= 0: one generator yields
        all of level one's Student-t variates, then level two's, and so on.
        """
        x0 = self._check_queries(x0)
        if x0.shape[0] != 1:
            raise InvalidArgumentError("sampling takes a single query point")
        if not is_int(n_draws) or n_draws < 1:
            raise InvalidArgumentError(f"n_draws must be an integer >= 1, got {n_draws!r}")
        if not is_int(seed) or seed < 0:
            raise InvalidArgumentError(f"seed must be an integer >= 0, got {seed!r}")
        rng = np.random.default_rng(seed)
        draws = np.empty((n_draws, self.s))
        y = 0.0
        for st, (mu, Q0, yc), level in zip(self._states, self._pieces(x0)[0], draws.T):
            if yc is not None:
                mu = mu + st.gamma * y
                Q0 = Q0 + st.minv_qq * (y - yc) ** 2
            scale = np.sqrt(st.sigma2_pred * np.maximum(Q0, 0.0))
            level[:] = mu + scale * rng.standard_t(st.df, size=n_draws)
            y = level
        return draws

    def credible_intervals(self, X0, prob=0.95):
        """Equal-tail predictive intervals at every level for each query row.

        Returns an ``(m, s, 2)`` array of lower and upper bounds.  Level
        one uses exact Student-t quantiles; higher levels solve the
        quadrature CDF of the module docstring for each bound, so the
        result is deterministic and takes no draws.
        """
        if not is_real(prob) or not 0.0 < prob < 1.0:
            raise InvalidArgumentError(f"prob must lie in (0, 1), got {prob!r}")
        X0 = self._check_queries(X0)
        return self._intervals(self._pieces(X0)[0], prob)

    def credible_interval(self, x0, level, prob=0.95):
        """Equal-tail predictive interval at one point and level.

        The entry ``[0, level - 1]`` of ``credible_intervals`` at ``x0``.
        """
        if not is_int(level) or not 1 <= level <= self.s:
            raise InvalidArgumentError(
                f"level must be an integer in [1, {self.s}], got {level!r}"
            )
        x0 = self._check_queries(x0)
        if x0.shape[0] != 1:
            raise InvalidArgumentError("an interval takes a single query point")
        lo, hi = self.credible_intervals(x0, prob)[0, level - 1]
        return float(lo), float(hi)


def _quantiles(states, pieces, t, probs, rule_sets):
    """Level ``t + 1`` quantiles ``(rows, len(probs))`` of the rows of the
    ``CokrigingModel._pieces`` output ``pieces``, solved in blocks of rows;
    a row whose error estimate exceeds ``QUAD_TOL`` is solved again with
    finer rules.  ``rule_sets`` maps a refinement to its ``_Rules``, built
    here on first use, so one dict serves every level and block of a
    ``credible_intervals`` call."""
    out = np.empty((pieces[0][0].size, probs.size))
    rows = np.arange(out.shape[0])
    for refine in range(MAX_REFINE + 1):
        if refine not in rule_sets:
            rule_sets[refine] = _Rules(states, refine)
        rules = rule_sets[refine]
        nodes = int(np.prod([rules.full[k][0].size for k in range(1, t + 1)]))
        block = max(1, QUAD_BLOCK_BYTES // (8 * probs.size * nodes))
        err = np.empty((rows.size, probs.size))
        for start in range(0, rows.size, block):
            part = rows[start:start + block]
            quad = _Quadrature(
                states[: t + 1],
                [[None if a is None else a[part] for a in pc] for pc in pieces[: t + 1]],
                rules,
            )
            out[part], err[start:start + block] = quad.quantiles(t, probs)
        rows = rows[(err > QUAD_TOL).any(axis=1)]
        if rows.size == 0:
            break
    return out


def _tanh_sinh(step):
    """Tanh-sinh rule on (0, 1): nodes ``v`` (symmetric, so ``1 - v`` is
    ``v`` reversed) and weights of shape ``(2, nodes)``, the rule's own in
    row 0 and in row 1 those of the rule of twice the step, whose nodes are
    every other one of these."""
    n = int(round(QUAD_HALF_WIDTH / step))
    j = np.arange(-n, n + 1)
    x = step * j
    s = 0.5 * np.pi * np.sinh(x)
    w = step * 0.25 * np.pi * np.cosh(x) / np.cosh(s) ** 2
    return 1.0 / (1.0 + np.exp(-2.0 * s)), np.stack([w, np.where(j % 2 == 0, 2.0 * w, 0.0)])


def _step(df, refine):
    return QUAD_STEP * min(1.0, np.sqrt(df / STEP_DF)) / 2**refine


def _central_rule(df, step, mass=0.0):
    """Nodes and ``(2, nodes)`` weights for ``E[g(e); |e| < e_star]`` over
    a standard Student-t ``e``, given the mass ``P(e < -e_star)`` of either
    tail: tanh-sinh in the CDF scale between ``-e_star`` and ``e_star``, so
    that the heavy tails and any break at ``+-e_star`` sit at the ends of
    the rule."""
    v, w = _tanh_sinh(step)
    half = v.size // 2
    low = stdtrit(df, mass + (1.0 - 2.0 * mass) * v[: half + 1])
    return np.concatenate([low, -low[-2::-1]]), (1.0 - 2.0 * mass) * w


def _t_series(df):
    """Coefficients of ``_t_cdf``'s sum at integer ``df``: ``a_j = a_{j-1}
    (2j-1)/(2j)`` for even ``df`` and ``b_j = b_{j-1} (2j)/(2j+1)`` for odd,
    from 1 at ``j = 0``, for ``j < df // 2``; read-only."""
    j = np.arange(1, df // 2)
    ratio = (2 * j - 1) / (2 * j) if df % 2 == 0 else (2 * j) / (2 * j + 1)
    coef = np.cumprod(np.concatenate([[1.0], ratio]))[: df // 2]
    coef.flags.writeable = False
    return coef


def _t_cdf(df, x, coef=None):
    """Standard Student-t CDF at ``x`` for integer ``df``: for ``df`` up to
    ``SERIES_MAX_DF``, the finite series of Abramowitz and Stegun
    26.7.3-26.7.4 in ``c2 = df / (df + x^2)`` and ``s = x / sqrt(df +
    x^2)``,

        F = 1/2 + (s/2) * sum_j a_j c2^j                   (even df)
        F = 1/2 + (atan(x/sqrt(df)) + s sqrt(c2) sum_j b_j c2^j) / pi   (odd)

    with the coefficients ``coef`` of ``_t_series(df)`` (computed here when
    None), summed by Horner in one buffer; above ``SERIES_MAX_DF``,
    ``scipy.special.stdtr``.  The series is accurate to 1e-14 absolute
    (its error grows with ``df``, to about 5e-15 at ``SERIES_MAX_DF``), not
    relative: the lower tail is ``1/2`` minus nearly ``1/2``.  Exactly 0
    and 1 at ``-inf`` and ``+inf``, nan at nan."""
    if df > SERIES_MAX_DF:
        return stdtr(df, x)
    if coef is None:
        coef = _t_series(df)
    # at +-max the form gives exactly 1 and 0, so the infinities take them
    x = np.clip(np.asarray(x, dtype=np.float64), -_MAX_FLOAT, _MAX_FLOAT)
    root = np.sqrt(df)
    s = x / np.hypot(x, root)
    with np.errstate(over="ignore"):
        c2 = df / (df + x * x)
    F = np.zeros_like(c2)
    for a in coef[::-1]:
        F *= c2
        F += a
    F *= s
    if df % 2 == 0:
        F *= 0.5
    else:
        F *= np.sqrt(c2)
        F += np.arctan(x / root)
        F /= np.pi
    F += 0.5
    return F


def _t_tail(df, x):
    """Standard Student-t CDF at ``x`` to full relative accuracy in the
    lower tail, for the innovation masses beyond ``e_star`` and ``e_c``:
    ``scipy.special.stdtr``, except at ``df = 1``, where scipy's is off by
    up to 1.6e-9 near zero.  There it is the Cauchy CDF, ``atan2(1, -x) /
    pi`` below zero, which does not cancel in the tail, and ``1/2 +
    atan(x) / pi`` above, each within one rounding of the exact value."""
    if df == 1:
        x = np.asarray(x, dtype=np.float64)
        return np.where(x < 0.0, np.arctan2(1.0, -x) / np.pi, 0.5 + np.arctan(x) / np.pi)
    return stdtr(df, x)


def _t_log_norm(df):
    """Log of the Student-t density's normaliser at ``df``."""
    return gammaln(0.5 * (df + 1.0)) - gammaln(0.5 * df) - 0.5 * np.log(df * np.pi)


def _t_cdf_pdf(z, loc, scale, df, logc, coef):
    """CDF and density at ``z`` of ``loc + scale * T_df``, given the
    normaliser ``logc = _t_log_norm(df)`` and the series ``coef`` of
    ``_t_cdf``; a zero scale is a point mass at ``loc``, with density
    zero."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = (z - loc) / scale
        F = _t_cdf(df, x, coef)
        f = np.exp(logc - 0.5 * (df + 1.0) * np.log1p(x * x / df)) / scale
    point = scale <= 0.0
    if point.any():
        F = np.where(point, (z >= loc).astype(np.float64), F)
        f = np.where(point, 0.0, f)
    return F, f


def _weighted(values, weights):
    """Sums over the last axis of ``values`` with each row of the ``(2,
    nodes)`` rule ``weights``, stacked on a new last axis.  Unlike a matrix
    product, each sum's rounding does not depend on how many there are, so
    a query's bounds do not depend on the others in its block."""
    return (values[..., None, :] * weights).sum(axis=-1)


def _estimate(sums):
    """The fine sum of ``_weighted`` and its distance from the coarse one."""
    return sums[..., 0], np.abs(sums[..., 0] - sums[..., 1])


def _by_row(a, r, ndim):
    """Per-row values ``a[r]`` shaped to broadcast against an array of
    ``ndim`` dimensions whose leading axis indexes the rows ``r``."""
    return a[r].reshape((-1,) + (1,) * (ndim - 1))


class _Rules:
    """The tanh-sinh rules of every level at one refinement: per level the
    full central rule, the central rule up to ``e_star`` and the tail rule
    in its own variable; and the level's scalars, the innovation mass
    ``P(e < -e_star)`` and the Student-t law ``(df, logc, coef)`` of
    ``_t_cdf_pdf``.  They depend only on the level's degrees of freedom,
    step and ``e_star``, so one set serves every block of rows; its arrays
    are read-only."""

    def __init__(self, states, refine):
        self.dfs = [st.df for st in states]
        # |e| beyond which the leading coefficient gamma^2 - e^2 S q of
        # the event's quadratic turns negative
        self.e_star = [np.inf] + [
            abs(st.gamma) / np.sqrt(st.sigma2_pred * st.minv_qq) for st in states[1:]
        ]
        self.mass = [float(_t_tail(df, -e)) for df, e in zip(self.dfs, self.e_star)]
        self.law = [
            (df, _t_log_norm(df), None if df > SERIES_MAX_DF else _t_series(df))
            for df in self.dfs
        ]
        steps = [_step(df, refine) for df in self.dfs]
        self.full = [_central_rule(df, h) for df, h in zip(self.dfs, steps)]
        self.mid = [_central_rule(df, h, m) for df, h, m in zip(self.dfs, steps, self.mass)]
        self.tail = [_tanh_sinh(h) for h in steps]
        for rule in self.full + self.mid + self.tail:
            for a in rule:
                a.flags.writeable = False


class _Quadrature:
    """Predictive CDFs and densities of a block of query rows, and the
    quantile solve on them.

    Given the level below at ``y``, level ``t`` is ``mu + gamma*y +
    sqrt(S*Q(y))*e`` with ``Q(y) = Q0 + q*(y - yc)^2`` and ``e`` standard
    Student-t.  Per row and level the CDF sums over the variable that
    spreads the level less, so the summand is smooth in it:

    - over ``e`` (``_cdf_over_innovation``) when ``|gamma|`` times the
      lower spread is at least the typical conditional scale
      ``sqrt(S*Q)``;
    - otherwise over the lower levels' product rule
      (``_cdf_over_lower``).

    Every rule is tanh-sinh in a Student-t CDF scale, which keeps the
    heavy tails at the ends of the rule.  The rules come from ``rules``, a
    ``_Rules`` at one refinement that every block of a
    ``credible_intervals`` call shares; the block adds only its rows'
    nodes.  Each CDF comes with an error estimate: its distance from the
    same sum over every other node, plus the estimates of the lower CDFs
    it sums.
    """

    def __init__(self, states, pieces, rules):
        self.states = states
        self.dfs, self.e_star = rules.dfs, rules.e_star
        self.mass, self.law = rules.mass, rules.law
        self.full_rules, self.mid_rules, self.tail_rules = rules.full, rules.mid, rules.tail
        self.mu = [mu for mu, _, _ in pieces]
        self.Q0 = [np.maximum(Q0, 0.0) for _, Q0, _ in pieces]
        self.yc = [yc for _, _, yc in pieces]
        # location and scale of each level: predict's mean and variance
        # recursion without the Student-t variance factors
        self.loc = [self.mu[0]]
        self.spread = [np.sqrt(states[0].sigma2_pred * self.Q0[0])]
        self.over_lower = [None]
        self.start_df = [np.full(self.mu[0].shape, self.dfs[0])]
        for t, st in enumerate(states[1:], start=1):
            y, var = self.loc[-1], self.spread[-1] ** 2
            cond = st.sigma2_pred * (self.Q0[t] + st.minv_qq * ((y - self.yc[t]) ** 2 + var))
            lower = cond > st.gamma**2 * var
            self.over_lower.append(lower)
            self.start_df.append(np.where(lower, self.dfs[t], self.start_df[-1]))
            self.loc.append(self.mu[t] + st.gamma * y)
            self.spread.append(np.sqrt(st.gamma**2 * var + cond))
        self._grids = {}

    def _scale(self, t, y, r=slice(None), ndim=1):
        """Conditional scale of level ``t + 1`` given the lower value ``y``
        at block rows ``r``."""
        st = self.states[t]
        Q0, yc = (_by_row(a, r, ndim) for a in (self.Q0[t], self.yc[t]))
        return np.sqrt(st.sigma2_pred * (Q0 + st.minv_qq * (y - yc) ** 2))

    def cdf(self, t, z, r):
        """``(F, f, err)``: CDF, density and CDF error estimate of level
        ``t + 1`` at ``z``, whose leading axis indexes the block rows ``r``."""
        if t == 0:
            mu, scale = (_by_row(a, r, z.ndim) for a in (self.loc[0], self.spread[0]))
            return _t_cdf_pdf(z, mu, scale, *self.law[0]) + (np.zeros_like(z),)
        lower = self.over_lower[t][r]
        if lower.all():
            return self._cdf_over_lower(t, z, r)
        if not lower.any():
            return self._cdf_over_innovation(t, z, r)
        out = tuple(np.empty_like(z) for _ in range(3))
        for mask, fn in ((lower, self._cdf_over_lower), (~lower, self._cdf_over_innovation)):
            for a, b in zip(out, fn(t, z[mask], r[mask])):
                a[mask] = b
        return out

    def _grid(self, t):
        """Product-rule nodes ``(rows, N)`` and ``(2, N)`` weights of level
        ``t + 1`` for every block row: the lower nodes pushed through the
        level's map at each of its innovation nodes."""
        if t not in self._grids:
            e, w = self.full_rules[t]
            if t == 0:
                nodes, weights = self.loc[0][:, None] + self.spread[0][:, None] * e, w
            else:
                below, w_below = self._grid(t - 1)
                loc = self.mu[t][:, None] + self.states[t].gamma * below
                scale = self._scale(t, below, ndim=2)
                nodes = (loc[:, :, None] + scale[:, :, None] * e).reshape(below.shape[0], -1)
                weights = (w_below[:, :, None] * w[:, None, :]).reshape(2, -1)
            self._grids[t] = (nodes, weights)
        return self._grids[t]

    def _cdf_over_lower(self, t, z, r):
        """Sum over the lower levels' nodes of level ``t + 1``'s Student-t
        CDF given each node."""
        nodes, weights = self._grid(t - 1)
        y = nodes[r].reshape((r.size,) + (1,) * (z.ndim - 1) + nodes.shape[1:])
        loc = _by_row(self.mu[t], r, y.ndim) + self.states[t].gamma * y
        F, f = _t_cdf_pdf(z[..., None], loc, self._scale(t, y, r, y.ndim), *self.law[t])
        F, err = _estimate(_weighted(F, weights))
        return F, (f * weights[0]).sum(axis=-1), err

    def _cdf_over_innovation(self, t, z, r):
        """Sum over level ``t + 1``'s innovation ``e`` of the lower level's
        probability of the event ``y_{t+1} <= z`` given ``e``.

        In ``u = y - yc`` and ``b = z - mu - gamma*yc`` the event is ``h(u)
        = b - gamma*u >= e*sqrt(S*Q)``.  Let ``J`` be the set where
        ``sign(e)*h >= |e|*sqrt(S*Q)``, an interval because the right side
        is convex; the event is ``J`` for ``e >= 0`` and the complement of
        ``J`` for ``e < 0``.  With ``A = gamma^2 - e^2*S*q`` (``_interval``):

        - ``|e| < e_star`` (``A > 0``): ``J`` is a half-line, and the rule
          is the central one;
        - ``|e| > e_star``: ``J`` is bounded, and non-empty only for
          ``sign(e) = sign(b)`` and ``|e| < e_c = sqrt(e_star^2 +
          b^2/(S*Q0))``.  So the lower tail adds its whole mass, and the
          tail of ``sign(b)`` adds ``sign(b)`` times ``P(J)`` integrated
          up to ``e_c`` by a rule of its own per query.
        """
        df, e_star, mass = self.dfs[t], self.e_star[t], self.mass[t]
        e, w = self.mid_rules[t]
        b = z[..., None] - _by_row(self.mu[t] + self.states[t].gamma * self.yc[t], r, z.ndim + 1)
        prob, dprob, perr = self._interval(t, b, e, r)
        sign = np.where(e >= 0.0, 1.0, -1.0)
        F, err = _estimate(_weighted(np.where(sign > 0.0, prob, 1.0 - prob), w))
        f = (sign * dprob * w[0]).sum(axis=-1)
        err = err + (perr * w[0]).sum(axis=-1)
        if mass > TAIL_MASS:
            st = self.states[t]
            Q0 = _by_row(self.Q0[t], r, b.ndim)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                e_c = np.sqrt(e_star**2 + b * b / (st.sigma2_pred * Q0))
            e_c = np.where(np.isnan(e_c), e_star, e_c)
            v, w_tail = self.tail_rules[t]
            beyond = _t_tail(df, -e_c)
            side = np.where(b >= 0.0, 1.0, -1.0)
            e = -side * stdtrit(df, beyond + (mass - beyond) * v)
            prob, dprob, perr = self._interval(t, b, e, r)
            width = (mass - beyond)[..., 0]
            tail, tail_err = _estimate(_weighted(prob, w_tail))
            F = F + mass + side[..., 0] * width * tail
            f = f + side[..., 0] * width * (dprob * w_tail[0]).sum(axis=-1)
            err = err + width * (tail_err + (perr * w_tail[0]).sum(axis=-1))
        return F, f, err

    def _interval(self, t, b, e, r):
        """``P(J)``, its derivative in ``z`` and its error estimate at
        innovations ``e``, for ``b`` of shape ``(K, ..., 1)`` and rows
        ``r``.

        The ends of ``J`` are roots of ``h^2 - e^2*S*Q = A u^2 - 2 gamma b u
        + b^2 - e^2 S Q0``, whose discriminant is ``4 D^2`` with ``D^2 =
        e^2 S (q b^2 + A Q0)``:

        - ``A > 0``: ``J`` is a half-line ending at the root where
          ``sign(e)*h`` is larger, open towards ``-inf`` when
          ``sign(e)*gamma > 0`` (this covers ``gamma < 0``);
        - ``A <= 0``: ``J`` lies between the roots when ``D^2 >= 0`` and
          ``sign(e)*h`` is non-negative there, else it is empty.

        Every node of the central rule has ``A > 0``, so there the lower
        CDF is taken at the one finite end only: ``P(J)`` is ``F`` or
        ``1.0 - F`` and its derivative ``f*slope`` or ``0.0 - f*slope``,
        the floats the two-ended difference gives.  The tail rule, and a
        central rule on which rounding leaves some node at ``A <= 0``,
        take both ends.
        """
        st = self.states[t]
        gamma, q = st.gamma, st.minv_qq
        Q0, yc = (_by_row(a, r, b.ndim) for a in (self.Q0[t], self.yc[t]))
        sign = np.where(e >= 0.0, 1.0, -1.0)
        e2S = st.sigma2_pred * e * e
        A = gamma * gamma - e2S * q
        D2 = e2S * (q * b * b + A * Q0)
        gb = gamma * b
        D = np.copysign(np.sqrt(np.maximum(D2, 0.0)), gb)
        with np.errstate(divide="ignore", invalid="ignore"):
            # the stable pair of roots; gb + D is zero only at a double root
            # at zero (b = 0 with e = 0 or Q0 = 0)
            u1 = (gb + D) / A
            u2 = np.where(gb + D == 0.0, u1, (b * b - e2S * Q0) / (gb + D))
        h1, h2 = sign * (b - gamma * u1), sign * (b - gamma * u2)
        end = np.where(h1 >= h2, u1, u2)
        open_low = sign * gamma > 0.0
        half = A > 0.0
        if half.all():
            F, f, err = self._lower_cdf(t, end + yc, r)
            f = f * self._slope(t, e, end, Q0)
            return np.where(open_low, F, 1.0 - F), np.where(open_low, f, 0.0 - f), err
        kept = (D2 >= 0.0) & (h1 + h2 >= 0.0)
        order = u1 <= u2
        lo = np.where(half, np.where(open_low, -np.inf, end),
                      np.where(kept, np.where(order, u1, u2), np.inf))
        hi = np.where(half, np.where(open_low, end, np.inf),
                      np.where(kept, np.where(order, u2, u1), np.inf))
        u = np.stack([lo, hi], axis=-1)
        Fe, fe, ee = self._lower_cdf(t, u + yc[..., None], r)
        fe = fe * self._slope(t, e[..., None], u, Q0[..., None])
        return Fe[..., 1] - Fe[..., 0], fe[..., 1] - fe[..., 0], ee[..., 0] + ee[..., 1]

    def _slope(self, t, e, u, Q0):
        """Derivative in ``z`` of the end ``u`` of ``J`` at innovation
        ``e``.  An end solves ``gamma*u + e*sqrt(S*Q(u)) = b``, so it is
        ``1 / (gamma + e*S*q*u / sqrt(S*Q(u)))``; zero at an infinite end,
        and where the ends merge and the derivative diverges."""
        st = self.states[t]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            scale = np.sqrt(st.sigma2_pred * (Q0 + st.minv_qq * u * u))
            bend = st.sigma2_pred * st.minv_qq * e * u / scale
            slope = 1.0 / (st.gamma + np.where(scale > 0.0, bend, 0.0))
        return np.where(np.isfinite(slope), slope, 0.0)

    def _lower_cdf(self, t, ends, r):
        """``cdf`` of the level below level ``t + 1`` at ``ends``, whose
        leading axis indexes the block rows ``r``; an end that is not finite
        has CDF ``end > 0`` and zero density and error."""
        finite = np.isfinite(ends)
        if finite.all():
            return self.cdf(t - 1, ends, r)
        F = (ends > 0.0).astype(np.float64)
        f = np.zeros_like(ends)
        err = np.zeros_like(ends)
        rows = np.broadcast_to(_by_row(r, np.arange(r.size), ends.ndim), ends.shape)
        F[finite], f[finite], err[finite] = self.cdf(t - 1, ends[finite], rows[finite])
        return F, f, err

    def quantiles(self, t, probs):
        """Level ``t + 1`` quantiles ``(rows, len(probs))`` at every block
        row, every bound solved at once, and the CDF error estimate at the
        last Newton point of each.

        Newton starts from the Student-t quantile at the level's location
        and scale, with the degrees of freedom of the level that dominates
        its spread; that quantile is taken once per distinct degrees of
        freedom and probability.  A Newton step of at most ``1e-7`` spreads
        is the last: the error it leaves is of the order of its square.
        """
        n = self.loc[t].size
        r = np.repeat(np.arange(n), probs.size)
        p = np.tile(probs, n)
        loc, spread = self.loc[t][r], self.spread[t][r]
        dfs, which = np.unique(self.start_df[t], return_inverse=True)
        z = loc + spread * stdtrit(dfs[:, None], probs)[which].ravel()
        err = np.zeros(z.shape)
        lo = np.full(z.shape, -np.inf)
        hi = np.full(z.shape, np.inf)
        step = spread.copy()
        floor = 8.0 * np.finfo(float).eps * np.abs(loc)
        newton_tol = np.maximum(1e-7 * spread, floor)
        width_tol = np.maximum(1e-12 * spread, floor)
        z[spread <= 0.0] = loc[spread <= 0.0]
        active = np.flatnonzero(spread > 0.0)
        for _ in range(MAX_SOLVE_STEPS):
            if active.size == 0:
                return z.reshape(n, probs.size), err.reshape(n, probs.size)
            za = z[active]
            F, f, err[active] = self.cdf(t, za, r[active])
            below = F < p[active]
            lo[active] = np.where(below, za, lo[active])
            hi[active] = np.where(below, hi[active], za)
            la, ha = lo[active], hi[active]
            with np.errstate(divide="ignore", invalid="ignore"):
                new = za + (p[active] - F) / f
            inside = (new >= la) & (new <= ha)
            done = inside & (np.abs(new - za) <= newton_tol[active])
            # outside the bracket (or not finite) the step bisects a closed
            # bracket and steps outwards from an open one
            closed = np.isfinite(la) & np.isfinite(ha)
            out = ~inside & ~closed
            sa = step[active]
            new = np.where(~inside & closed, 0.5 * (la + ha), new)
            new = np.where(out, za + np.where(below, sa, -sa), new)
            step[active] = np.where(out, 2.0 * sa, sa)
            z[active] = new
            active = active[~(done | (ha - la <= width_tol[active]))]
        raise RuntimeError(
            f"interval bounds at level {t + 1} did not converge in "
            f"{MAX_SOLVE_STEPS} steps"
        )
