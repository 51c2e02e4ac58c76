"""Test-only reference implementations.

The kernel oracles are the per-dimension closed forms, assembled as a
product of 1-d correlations entry by entry; the library instead sums the
exponents over a distance stack and takes one ``exp``.  ``dense_objective``
is the whole posterior objective computed the long way: the correlation
matrix is built twice (once for the likelihood, once with its derivatives
for the prior), ``R^{-1}`` is formed explicitly and the prior's trace terms
come from ``einsum``.  ``dense_xi_gradient`` is the xi-gradient of the
objectives fitted by L-BFGS-B, from the full derivative stack, an explicit
inverse and the trace formula; ``dense_fisher_xi_gradient`` is that of
the reference and Jeffreys posteriors, from the full second-derivative
stack and ``1/2 tr(I^-1 dI)``.

``every_start`` runs ``optim.lbfgs_max`` from each start point a level's
multi-start documents, with no stopping rule, and ``stopping_rule``
replays the rule ``fit_level`` documents from such full runs, cutting each
start after the first at the first evaluation whose running best agrees
with the best so far.  ``plain_lbfgs_max`` is L-BFGS-B as
``optim.lbfgs_max`` documents it without the memo of evaluated points:
every call scipy makes evaluates the objective.

``coincident_rows_loop`` is the row-by-row design-point test and
``point_draws`` the per-point sampling path: one cross-correlation column,
one triangular solve and one set of seeded draws per query point, with the
level-one Student-t formula written out.  ``point_cdf`` integrates the joint
predictive at one query row with ``scipy.integrate.quad``, nested over the
lower levels' values, each in its Student-t CDF scale.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize
from scipy.special import stdtr, stdtrit

from mfcokrig.kernels import POWER_EXPONENTIAL, cross_corr
from mfcokrig.optim import _LBFGS_FTOL, SENTINEL_THRESHOLD, OptimResult, lbfgs_max


def corr1d(h, phi, spec):
    """``r(h)`` for one dimension; elementwise over array ``h``."""
    if spec.family == POWER_EXPONENTIAL:
        return np.exp(-((h / phi) ** spec.shape))
    u = math.sqrt(2.0 * spec.shape) * (h / phi)
    if spec.shape == 0.5:
        return np.exp(-u)
    if spec.shape == 1.5:
        return (1.0 + u) * np.exp(-u)
    return (1.0 + u + u * u / 3.0) * np.exp(-u)


def dcorr_ratio(h, phi, spec):
    """``(dr/dphi) / r`` for one dimension; elementwise over array ``h``."""
    if spec.family == POWER_EXPONENTIAL:
        return spec.shape * h**spec.shape / phi ** (spec.shape + 1.0)
    u = math.sqrt(2.0 * spec.shape) * (h / phi)
    if spec.shape == 0.5:
        return h / (phi * phi)
    if spec.shape == 1.5:
        return u * u / (phi * (1.0 + u))
    return u * u * (1.0 + u) / (3.0 * phi * (1.0 + u + u * u / 3.0))


def cross_corr_loop(X1, X2, phi, spec):
    """Entry-by-entry product of 1-d correlations."""
    C = np.empty((X1.shape[0], X2.shape[0]))
    for i in range(X1.shape[0]):
        for j in range(X2.shape[0]):
            rho = 1.0
            for k in range(X1.shape[1]):
                rho *= corr1d(abs(X1[i, k] - X2[j, k]), phi[k], spec)
            C[i, j] = rho
    return C


def corr_matrix_loop(X, phi, spec):
    R = cross_corr_loop(X, X, phi, spec)
    np.fill_diagonal(R, 1.0 + spec.nugget)
    return R


def corr_matrix_with_derivs_loop(X, phi, spec):
    n, d = X.shape
    R = corr_matrix_loop(X, phi, spec)
    dR = np.zeros((d, n, n))
    for i in range(n):
        for j in range(n):
            # underflowed correlations contribute exactly zero derivative
            if i != j and R[i, j] != 0.0:
                for k in range(d):
                    h = abs(X[i, k] - X[j, k])
                    dR[k, i, j] = R[i, j] * dcorr_ratio(h, phi[k], spec)
    return R, dR


def _dense_corr(X, phi, spec, derivs):
    """Product-form correlation (and derivative stack) over whole slices."""
    n, d = X.shape
    H = np.abs(X[:, None, :] - X[None, :, :])
    R0 = np.ones((n, n))
    for k in range(d):
        R0 *= corr1d(H[:, :, k], phi[k], spec)
    R = R0.copy()
    np.fill_diagonal(R, 1.0 + spec.nugget)
    if not derivs:
        return R
    dR = np.empty((d, n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(d):
            g = R0 * dcorr_ratio(H[:, :, k], phi[k], spec)
            dR[k] = np.where(R0 == 0.0, 0.0, g)
    return R, dR


def _half_logdet(info):
    L = cholesky(0.5 * (info + info.T), lower=True)
    return float(np.sum(np.log(np.diag(L))))


def _trace_form(corner, W):
    d = W.shape[0]
    info = np.empty((d + 1, d + 1))
    info[0, 0] = corner
    info[0, 1:] = info[1:, 0] = np.einsum("kii->k", W)
    info[1:, 1:] = np.einsum("kab,jba->kj", W, W)
    return 0.5 * (info + info.T)


def dense_objective(lv, xi, spec, prior):
    """Posterior log density of ``xi`` at one level, computed the long way.

    The Jacobian is ``-sum(xi)`` for priors on ``phi`` and ``+sum(xi)`` for
    the jointly robust prior, a density on ``1/phi``.
    """
    phi = np.exp(-xi)
    n, q, X, y = lv.n, lv.q, lv.design, lv.outputs

    # likelihood: first build, Cholesky and triangular solves
    L = cholesky(_dense_corr(lv.inputs, phi, spec, False), lower=True)
    A = solve_triangular(L, X, lower=True)
    z = solve_triangular(L, y, lower=True)
    Lm = cholesky(A.T @ A, lower=True)
    b = cho_solve((Lm, True), A.T @ z)
    e = z - A @ b
    S2 = float(e @ e)
    logdet_R = 2.0 * float(np.sum(np.log(np.diag(L))))
    logdet_M = 2.0 * float(np.sum(np.log(np.diag(Lm))))
    a_t = prior.a_t(q)
    value = -0.5 * logdet_R - 0.5 * logdet_M - (0.5 * (n - q) + a_t - 1.0) * math.log(S2)

    if prior.kind == "flat":
        lp = 0.0
    elif prior.kind == "inverse_range":
        lp = -float(np.sum(np.log(phi)))
    elif prior.kind == "jointly_robust":
        d = lv.dims
        span = lv.inputs.max(axis=0) - lv.inputs.min(axis=0)
        total = float((n ** (-1.0 / d) * span) @ (1.0 / phi))
        lp = (0.5 - d) * math.log(total) - total
    else:
        # prior: second build, explicit inverse
        R, dR = _dense_corr(lv.inputs, phi, spec, True)
        Rinv = cho_solve((cholesky(R, lower=True), True), np.eye(n))
        B = Rinv @ X
        M = X.T @ B
        if prior.kind == "reference":
            Q = Rinv - B @ np.linalg.solve(M, B.T)
            lp = _half_logdet(_trace_form(n - q, dR @ (0.5 * (Q + Q.T))))
        else:
            lp = _half_logdet(_trace_form(n, dR @ Rinv))
            if prior.kind == "jeffreys2":
                lp += 0.5 * np.linalg.slogdet(M)[1]
    jacobian = float(np.sum(xi)) if prior.kind == "jointly_robust" else -float(np.sum(xi))
    return value + lp + jacobian


def dense_xi_gradient(lv, xi, spec, kind):
    """xi-gradient of the plug-in criterion (``kind="plugin"``) or of the
    posterior under a prior kind without Fisher information, computed the
    long way: the full derivative stack, ``np.linalg.inv`` and the trace
    formula ``d/dphi_k = -1/2 tr(G dR_k) + c u^T dR_k u / S2``, with
    ``G = R^-1`` (plug-in) or the GLS projector ``Q`` and ``u = Q y``, then
    ``d/dxi_k = -phi_k d/dphi_k`` plus the prior and Jacobian terms.
    """
    phi = np.exp(-xi)
    n, q, X, y = lv.n, lv.q, lv.design, lv.outputs
    R, dR = _dense_corr(lv.inputs, phi, spec, True)
    Rinv = np.linalg.inv(R)
    RX = Rinv @ X
    M = X.T @ RX
    Q = Rinv - RX @ np.linalg.solve(M, RX.T)
    # u = Q y from the residual: at level 2, S2 = y^T Q y is about 2e-7 of
    # y^T R^-1 y, and the product Q y would lose those digits
    resid = y - X @ np.linalg.solve(M, RX.T @ y)
    u = Rinv @ resid
    S2 = float(resid @ u)
    G = Rinv if kind == "plugin" else Q
    # the exponent on log S2; a_t = 1 for every kind without Fisher information
    c = 0.5 * (n - q)
    dphi = np.array([-0.5 * np.trace(G @ dR_k) + c * (u @ dR_k @ u) / S2 for dR_k in dR])
    grad = -phi * dphi
    if kind == "flat":
        grad -= 1.0
    elif kind == "jointly_robust":
        d = lv.dims
        span = lv.inputs.max(axis=0) - lv.inputs.min(axis=0)
        CB = n ** (-1.0 / d) * span / phi
        grad += ((0.5 - d) / CB.sum() - 1.0) * CB + 1.0
    return grad


def d2corr_ratio(h, phi, spec):
    """``(d^2 r / dphi^2) / r`` for one dimension; elementwise over array
    ``h``."""
    if spec.family == POWER_EXPONENTIAL or spec.shape == 0.5:
        a = spec.shape if spec.family == POWER_EXPONENTIAL else 1.0
        t = h**a
        return (a * t / phi ** (a + 1.0)) ** 2 - a * (a + 1.0) * t / phi ** (a + 2.0)
    u = math.sqrt(2.0 * spec.shape) * (h / phi)
    if spec.shape == 1.5:
        # r'' = (u^3 - 3 u^2) e^-u / phi^2 and r = (1 + u) e^-u
        return (u**3 - 3.0 * u**2) / ((1.0 + u) * phi * phi)
    # r'' = (u^4 - 3 u^3 - 3 u^2) e^-u / (3 phi^2), r = (1 + u + u^2/3) e^-u
    return (u**4 - 3.0 * u**3 - 3.0 * u**2) / (3.0 * phi * phi * (1.0 + u + u * u / 3.0))


def dense_fisher_xi_gradient(lv, xi, spec, kind):
    """xi-gradient of the posterior under a kind in ``FISHER_KINDS``,
    computed the long way: the full second-derivative stack entry by entry
    (``d2R[k, j] = R rho_k rho_j`` off the diagonal of ``(k, j)`` and
    ``R r_k'' / r_k`` on it, with ``rho = (dr/dphi) / r``),
    ``np.linalg.inv``, and ``1/2 tr(I^-1 dI/dphi_j)`` with
    ``dI_0k = tr(dW_k)`` and ``dI_kl = tr(dW_k W_l + W_k dW_l)``,
    ``dW_k = d2R[k, j] P - dR_k P dR_j P``.  The likelihood's part is
    ``-1/2 tr(Q dR_j) + c u^T dR_j u / S2``, ``jeffreys2`` adds
    ``-1/2 tr(M^-1 X^T R^-1 dR_j R^-1 X)``, and then
    ``d/dxi_j = -phi_j d/dphi_j`` less the Jacobian's 1.
    """
    phi = np.exp(-xi)
    n, d, q, X, y = lv.n, lv.dims, lv.q, lv.design, lv.outputs
    H = np.abs(lv.inputs[:, None, :] - lv.inputs[None, :, :])
    R0 = np.ones((n, n))
    for k in range(d):
        R0 *= corr1d(H[:, :, k], phi[k], spec)
    R = R0.copy()
    np.fill_diagonal(R, 1.0 + spec.nugget)
    live = R0 != 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        rho = np.array([dcorr_ratio(H[:, :, k], phi[k], spec) for k in range(d)])
        second = np.array([d2corr_ratio(H[:, :, k], phi[k], spec) for k in range(d)])
    dR = np.where(live, R0 * rho, 0.0)
    d2R = np.empty((d, d, n, n))
    for k in range(d):
        for j in range(d):
            ratio = second[k] if k == j else rho[k] * rho[j]
            d2R[k, j] = np.where(live, R0 * ratio, 0.0)

    Rinv = np.linalg.inv(R)
    RX = Rinv @ X
    M = X.T @ RX
    Minv = np.linalg.inv(M)
    Q = Rinv - RX @ Minv @ RX.T
    P = Q if kind == "reference" else Rinv
    W = dR @ P
    info = _trace_form(n - q if kind == "reference" else n, W)
    info_inv = np.linalg.inv(info)
    prior = np.empty(d)
    for j in range(d):
        dP = -P @ dR[j] @ P
        dW = d2R[:, j] @ P + dR @ dP
        dinfo = np.zeros((d + 1, d + 1))
        dinfo[0, 1:] = dinfo[1:, 0] = np.einsum("kii->k", dW)
        body = np.einsum("kab,lba->kl", dW, W)
        dinfo[1:, 1:] = body + body.T
        prior[j] = 0.5 * np.trace(info_inv @ dinfo)
        if kind == "jeffreys2":
            prior[j] -= 0.5 * np.trace(Minv @ RX.T @ dR[j] @ RX)

    resid = y - X @ (Minv @ (RX.T @ y))
    u = Rinv @ resid
    S2 = float(resid @ u)
    a_t = 1.0 + 0.5 * q if kind == "jeffreys2" else 1.0
    c = 0.5 * (n - q) + a_t - 1.0
    lik = np.array([-0.5 * np.trace(Q @ dR_j) + c * (u @ dR_j @ u) / S2 for dR_j in dR])
    return -phi * (lik + prior) - 1.0


def coincident_rows_loop(A, B, tol):
    """Row by row: ``B[j]`` coincides with ``A[i]`` when every coordinate
    is within ``tol``."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    hits = np.zeros((A.shape[0], B.shape[0]), dtype=bool)
    for i in range(A.shape[0]):
        hits[i] = np.all(np.abs(B - A[i]) <= tol, axis=1)
    return hits


def _point_pieces(model, st, x0):
    lv, fact = st.data, st.fact
    C = cross_corr(lv.inputs, x0[None, :], st.params, model.spec)
    sw = solve_triangular(fact.chol_R, C[:, 0], lower=True, check_finite=False)
    h0 = np.asarray(lv.basis_fn(x0[None, :]), dtype=np.float64)[0]
    resid_part = float(sw @ fact.white_resid)
    c_base = (1.0 + model.spec.nugget) - float(sw @ sw)
    return sw, h0, resid_part, c_base


def _level_one(model, x0):
    """Mean, Student-t scale and degrees of freedom of level one at ``x0``."""
    st = model._states[0]
    lv, fact = st.data, st.fact
    sw, h0, resid_part, c_base = _point_pieces(model, st, x0)
    u0 = h0 - fact.white_design.T @ sw
    g0 = cho_solve((fact.chol_M, True), u0, check_finite=False)
    c_star = max(c_base + float(u0 @ g0), 0.0)
    mu = float(h0 @ fact.b_hat) + resid_part
    return mu, np.sqrt(st.sigma2_pred * c_star), lv.n - lv.q


def point_draws(model, x0, n_draws, seed):
    """``(n_draws, s)`` sequential joint draws at one point."""
    rng = np.random.default_rng(seed)
    draws = np.empty((n_draws, model.s))
    y_prev = None
    for t, st in enumerate(model._states):
        lv, fact = st.data, st.fact
        df = lv.n - lv.q
        if t == 0:
            mu, scale, _ = _level_one(model, x0)
        else:
            sw, h0, resid_part, c_base = _point_pieces(model, st, x0)
            u0 = np.concatenate([h0, [0.0]]) - fact.white_design.T @ sw
            g0 = cho_solve((fact.chol_M, True), u0, check_finite=False)
            c0 = c_base + float(u0 @ g0)
            c1 = 2.0 * float(g0[-1])
            mu = float(h0 @ fact.b_hat[:-1]) + resid_part + st.gamma * y_prev
            c_star = np.maximum(c0 + c1 * y_prev + st.minv_qq * y_prev**2, 0.0)
            scale = np.sqrt(st.sigma2_pred * c_star)
        draws[:, t] = mu + scale * rng.standard_t(df, size=n_draws)
        y_prev = draws[:, t]
    return draws


def point_cdf(model, pieces, level, z):
    """``P(y_level <= z)`` at one query row, for the joint predictive that
    ``sample_predictive`` draws from.

    ``pieces`` holds the row's ``(mu, c0, c1)`` for each level, the
    conditional scale being ``c0 + c1 y + q y^2`` in the lower value ``y``
    (``c1`` is unused at level one); at a design point the predictive is
    a few rounding errors wide, so the pieces must be the ones the bounds
    were solved with.  ``scipy.integrate.quad`` runs over ``u`` in (0, 1)
    for each level below ``level``, the level's value being its Student-t
    quantile at ``u`` given the value below; the top level contributes its
    conditional Student-t CDF.  A zero scale is a point mass.
    """
    st1 = model._states[0]
    mu1, c01, _ = (float(v) for v in pieces[0])
    s1 = float(np.sqrt(st1.sigma2_pred * max(c01, 0.0)))
    df1 = st1.data.n - st1.data.q
    upper = [
        (float(mu), float(c0), float(c1), st)
        for (mu, c0, c1), st in zip(pieces[1:], model._states[1:])
    ]

    def t_pdf(x, df):
        logc = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
        return math.exp(logc - 0.5 * (df + 1) * math.log1p(x * x / df))

    def t_cdf(x, loc, scale, df):
        if scale <= 0.0:
            return float(x >= loc)
        return float(stdtr(df, (x - loc) / scale))

    def given(t, y):
        """Location, scale and degrees of freedom of level ``t + 1`` (0-based
        index into the levels) given the value ``y`` of the level below."""
        mu, c0, c1, st = upper[t - 1]
        c_star = max(c0 + c1 * y + st.minv_qq * y * y, 0.0)
        return mu + st.gamma * y, np.sqrt(st.sigma2_pred * c_star), st.data.n - st.data.q

    # the value of each lower level whose conditional means carry it to z:
    # where the integrand turns fastest, in a layer as thin as the
    # conditional scales above that level
    target = [None] * level
    target[level - 1] = z
    for t in range(level - 1, 0, -1):
        mu, _, _, st = upper[t - 1]
        target[t - 1] = (target[t] - mu) / st.gamma if st.gamma != 0.0 else None

    def inner(u):
        """``u`` kept off the ends, where a node of a tiny subinterval can
        round onto them."""
        return min(max(u, 1e-300), 1.0 - 2.0**-53)

    # inner integrals are held tighter, so their rounding does not stall
    # the outer one
    tol = [1e-10 * 0.01**t for t in range(model.s)]

    def integrate(t, loc, scale, df):
        """Probability of the event given that level ``t + 1`` is
        ``loc + scale * T_df``."""
        if t == level - 1:
            return t_cdf(z, loc, scale, df)
        # quad runs piecewise, with breaks at the layer and at 1, 10 and
        # 100 times its width, which is about the next level's conditional
        # scale there over |gamma|
        cuts = {0.0, 1.0}
        if scale > 0.0 and target[t] is not None:
            x = (target[t] - loc) / scale
            u = float(stdtr(df, x))
            width = t_pdf(x, df) * given(t + 1, target[t])[1] / (abs(upper[t][3].gamma) * scale)
            cuts |= {u + k * width * 10.0**j for j in range(3) for k in (-1, 1)} | {u}
        cuts = sorted(c for c in cuts if 0.0 <= c <= 1.0)
        return sum(
            quad(
                lambda u: integrate(t + 1, *given(t + 1, loc + scale * stdtrit(df, inner(u)))),
                a, b, epsabs=tol[t], epsrel=tol[t], limit=100,
            )[0]
            for a, b in zip(cuts[:-1], cuts[1:])
            if b > a
        )

    return integrate(0, mu1, s1, df1)


def _start_points(d, opts, level):
    """The start points of level ``level`` under ``opts``: ``xi = 0``,
    then uniform draws on ``[start_low, start_high]^d`` seeded by
    ``(seed, level, start)``."""
    yield np.zeros(d)
    for j in range(1, opts.n_starts):
        seq = np.random.SeedSequence(entropy=opts.seed, spawn_key=(level, j))
        yield np.random.default_rng(seq).uniform(opts.start_low, opts.start_high, size=d)


def every_start(func, d, opts, level):
    """One ``optim.lbfgs_max`` result per start of level ``level`` under
    the ``OptimOptions`` ``opts``, all ``opts.n_starts`` of them, each run
    to its own stop.  ``func(xi, grad)`` is the objective with its
    gradient."""
    return [
        lbfgs_max(func, x0, tol=opts.tol, max_evals=opts.max_evals)
        for x0 in _start_points(d, opts, level)
    ]


def stopping_rule(func, d, opts, level):
    """``(start_values, n_evals, best_start, xi)`` of the multi-start
    ``fit_level`` documents, replayed from full runs of every start.

    Each start runs to its own stop with its evaluations logged.  A start
    after the first usable one is then cut at the first evaluation whose
    running best lies in ``[best - 1e-6 max(1, |best|), best]``, ``best``
    being the best value so far: its value is that running best, its
    evaluations those up to the cut and its point the first one that
    reached it.  Starts whose value is a sentinel fail; the level stops
    once two usable starts are within the band of its best.  Starts that
    fail by leaving every pair uncorrelated are not replayed.
    """
    start_values, n_evals = [], 0
    best = best_start = xi = None
    usable = []
    for j, x0 in enumerate(_start_points(d, opts, level)):
        points, values = [], []

        def logged(x, grad):
            value = func(x, grad)
            points.append(x.copy())
            values.append(value)
            return value

        run = lbfgs_max(logged, x0, tol=opts.tol, max_evals=opts.max_evals)
        assert run.n_evals == len(values)
        value, n, x = run.fun, run.n_evals, run.x
        if best is not None:
            running = np.maximum.accumulate(values)
            low = best - 1e-6 * max(1.0, abs(best))
            inside = np.flatnonzero((running >= low) & (running <= best))
            if inside.size:
                n = int(inside[0]) + 1
                first = int(np.argmax(values[:n]))
                value, x = values[first], points[first]
        start_values.append(value)
        n_evals += n
        if value <= SENTINEL_THRESHOLD:
            continue
        if best is None or value > best:
            best, best_start, xi = value, j, x
        usable.append(value)
        if sum(v >= best - 1e-6 * max(1.0, abs(best)) for v in usable) >= 2:
            break
    return tuple(start_values), n_evals, best_start, xi


def plain_lbfgs_max(func, x0, tol=1e-8, max_evals=None):
    """``optim.lbfgs_max`` without its memo, and the points it evaluated.

    Every call scipy's L-BFGS-B makes evaluates ``func`` and counts toward
    ``n_evals`` and the budget, repeats included.  The result is the
    ``OptimResult`` ``lbfgs_max`` documents: the first best point, and
    ``converged`` from scipy's gradient test, or from its other stops
    unless the last line search met a sentinel; not on the budget, nor at
    a sentinel best.  Returns the result and every point evaluated, in
    order.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    budget = 500 * (x0.size + 1) if max_evals is None else max_evals
    grad = np.empty(x0.size)
    points, values = [], []
    ends = [0]
    last_sentinel = 0

    class OutOfBudget(Exception):
        pass

    def negated(x):
        nonlocal last_sentinel
        if len(values) == budget:
            raise OutOfBudget
        value = float(func(x, grad))
        points.append(x.copy())
        values.append(value)
        if value <= SENTINEL_THRESHOLD:
            last_sentinel = len(values)
        return -value, -grad

    converged = False
    try:
        res = minimize(
            negated, x0, jac=True, method="L-BFGS-B",
            callback=lambda xk: ends.append(len(values)),
            options={"maxfun": budget, "maxiter": budget, "ftol": _LBFGS_FTOL, "gtol": tol},
        )
        gradient_test = res.status == 0 and np.abs(res.jac).max() <= tol
        last_search = ends[-2] if len(ends) > 1 else 0
        converged = (
            res.status != 1
            and max(values) > SENTINEL_THRESHOLD
            and (gradient_test or last_sentinel <= last_search)
        )
    except OutOfBudget:
        pass
    best = int(np.argmax(values))
    return OptimResult(points[best], values[best], len(values), converged), points
