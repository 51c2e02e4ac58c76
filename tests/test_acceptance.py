"""Acceptance gate: seven end-to-end checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
Each check is deterministic; the Monte-Carlo oracles use frozen seeds.
"""

import json
import time

import numpy as np
import pytest
from scipy.special import gammaln

from mfcokrig.bench import (
    borehole_low,
    replicate_design,
    run_borehole_benchmark,
    scale_to_box,
)
from mfcokrig.cli import main as cli_main
from mfcokrig.estimate import (
    FitResult,
    LevelFit,
    OptimOptions,
    PLUGIN,
    assemble,
    fit,
    fit_level,
    match_rows,
    objective,
)
from mfcokrig.gp import integrated_log_likelihood, tail_probe
from mfcokrig.kernels import KernelSpec, RangeParams, corr_matrix, corr_matrix_deriv, cross_corr
from mfcokrig.modelio import write_level_csv
from mfcokrig.predict import CokrigingModel
from mfcokrig.priors import (
    PriorSpec,
    fisher_info_jeffreys,
    fisher_info_reference,
    log_jeffreys_prior,
    log_prior,
)


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def _report(num, name, ok, detail):
    print(f"acceptance {num}/7 {name}: {_verdict(ok)} ({detail})")
    return ok


def _pinned_fit(data, spec, phis):
    fits = []
    for lv, phi in zip(data.levels, phis):
        p = RangeParams(np.asarray(phi, dtype=np.float64))
        fits.append(
            LevelFit(
                level=lv.index, phi=p.phi, xi=p.xi, objective_value=0.0,
                b_hat=np.zeros(lv.q), sigma2_hat=1.0, S2=1.0, converged=True,
                n_evals=0, best_start=0, n_failed_starts=0, start_values=(0.0,),
            )
        )
    return FitResult(levels=tuple(fits), method="posterior",
                     prior=PriorSpec(kind="flat"), spec=spec, opts=OptimOptions())


def _two_level_data(rng, n1, n2, noise=0.2):
    X1 = rng.uniform(size=(n1, 2))
    X2 = X1[rng.choice(n1, size=n2, replace=False)]
    y1 = np.sin(3.0 * X1[:, 0]) + X1[:, 1] ** 2 + noise * rng.standard_normal(n1)
    idx = match_rows(X2, X1)
    y2 = 1.5 * y1[idx] + 0.3 * np.cos(4.0 * X2[:, 0]) + 0.1 * rng.standard_normal(n2)
    return assemble([(X1, y1), (X2, y2)])


class TestClosedFormAgainstSampler:
    def test_predictive_moments_match_sequential_draws(self):
        t0 = time.time()
        rng = np.random.default_rng(2718)
        data = _two_level_data(rng, 10, 6)
        spec = KernelSpec(family="matern", shape=2.5, dims=2)
        phis = [np.array([0.7, 0.9]), np.array([0.8, 0.6])]
        model = CokrigingModel(data, _pinned_fit(data, spec, phis))
        X0 = rng.uniform(0.05, 0.95, size=(10, 2))
        pred = model.predict(X0)
        n_draws = 200_000
        worst_m = worst_v = 0.0
        for i in range(10):
            draws = model.sample_predictive(X0[i], n_draws, seed=1000 + i)
            for t in range(2):
                col = draws[:, t]
                sm, sv = col.mean(), col.var(ddof=1)
                se_m = col.std(ddof=1) / np.sqrt(n_draws)
                m4 = np.mean((col - sm) ** 4)
                se_v = np.sqrt(max(m4 - sv**2, 0.0) / n_draws)
                worst_m = max(worst_m, abs(sm - pred.means[i, t]) / se_m)
                worst_v = max(worst_v, abs(sv - pred.variances[i, t]) / se_v)
        elapsed = time.time() - t0
        ok = worst_m < 4.0 and worst_v < 4.0 and elapsed < 60.0
        assert _report(
            1, "closed-form moments vs 200k sequential draws", ok,
            f"max |z| mean={worst_m:.2f} var={worst_v:.2f}, limit 4; {elapsed:.1f}s of 60s",
        )


class TestInterpolationAndDominance:
    def test_design_point_reproduction_and_variance_floor(self):
        t0 = time.time()
        rng = np.random.default_rng(515)
        data = _two_level_data(rng, 15, 8)
        spec = KernelSpec(family="matern", shape=2.5, dims=2)
        result = fit(data, spec, PriorSpec(kind="reference"),
                     OptimOptions(seed=3, n_starts=4, max_evals=300, tol=1e-7))
        model = CokrigingModel(data, result)
        lv1, lv2 = data.levels
        idx = match_rows(lv2.inputs, lv1.inputs)

        p1 = model.predict(lv1.inputs)
        mean_err = np.max(np.abs(p1.means[:, 0] - lv1.outputs))
        var_max = np.max(p1.variances[:, 0])
        p2 = model.predict(lv2.inputs)
        mean_err = max(mean_err, np.max(np.abs(p2.means[:, 0] - lv1.outputs[idx])))
        mean_err = max(mean_err, np.max(np.abs(p2.means[:, 1] - lv2.outputs)))
        var_max = max(var_max, np.max(p2.variances))

        # single-level universal-kriging comparator at the fitted ranges:
        # same level-2 data and design, lower-level uncertainty dropped
        phi2 = result.levels[1].phi
        R = corr_matrix(lv2.inputs, RangeParams(phi2), spec)
        Rinv = np.linalg.inv(R)
        X = lv2.design
        M = X.T @ Rinv @ X
        Minv = np.linalg.inv(M)
        b = Minv @ X.T @ Rinv @ lv2.outputs
        resid = lv2.outputs - X @ b
        S2 = float(resid @ Rinv @ resid)
        df = lv2.n - lv2.q
        sigma2 = S2 / df

        def uk_variance(x0, y_prev_hat):
            r0 = cross_corr(lv2.inputs, x0[None, :], RangeParams(phi2), spec)[:, 0]
            f0 = np.array([1.0, y_prev_hat])
            u0 = f0 - X.T @ Rinv @ r0
            c = (1.0 + spec.nugget) - float(r0 @ Rinv @ r0) + float(u0 @ Minv @ u0)
            return df / (df - 2.0) * sigma2 * c

        X0 = rng.uniform(0.02, 0.98, size=(50, 2))
        pred = model.predict(X0)
        slack_ok = strict_ok = True
        for i in range(50):
            v_k = uk_variance(X0[i], pred.means[i, 0])
            slack_ok &= pred.variances[i, 1] >= v_k - 1e-8
            if i < 20:
                # random points avoid both designs almost surely
                strict_ok &= pred.variances[i, 1] > v_k
        elapsed = time.time() - t0
        ok = (mean_err < 1e-6 and var_max < 1e-8 and slack_ok and strict_ok
              and elapsed < 10.0)
        assert _report(
            2, "interpolation and variance dominance", ok,
            f"max |mean err|={mean_err:.2e} (<1e-6), max design var={var_max:.2e} "
            f"(<1e-8), dominance 50/50 slack {slack_ok}, strict 20/20 {strict_ok}; "
            f"{elapsed:.1f}s of 10s",
        )


class TestIntegratedLikelihoodOracle:
    @staticmethod
    def _mc_log_ratio(lv, spec, phi_a, phi_b, n_samples, seed):
        """Importance sampling with the exact conditional posteriors:
        sigma2 ~ IG(k, S2/2), beta | sigma2 ~ N(b_hat, sigma2/M), mixed
        half-and-half between the two range values."""
        rng = np.random.default_rng(seed)
        n, a_t = lv.n, 1.0
        k = (n - lv.q) / 2.0 + a_t - 1.0
        pieces = []
        for phi in (phi_a, phi_b):
            R = corr_matrix(lv.inputs, RangeParams(phi), spec)
            L = np.linalg.cholesky(R)
            logdet_R = 2.0 * np.log(np.diag(L)).sum()
            z = np.linalg.solve(L, lv.outputs)
            Z = np.linalg.solve(L, lv.basis)[:, 0]
            M = float(Z @ Z)
            b = float(Z @ z) / M
            S2 = float(z @ z) - M * b * b
            pieces.append((logdet_R, M, b, S2))
        half = n_samples // 2
        comp = np.repeat([0, 1], [half, n_samples - half])
        S2s = np.array([p[3] for p in pieces])[comp]
        Ms = np.array([p[1] for p in pieces])[comp]
        bs = np.array([p[2] for p in pieces])[comp]
        sig2 = (S2s / 2.0) / rng.gamma(k, 1.0, size=n_samples)
        beta = bs + np.sqrt(sig2 / Ms) * rng.standard_normal(n_samples)

        def log_target(piece):
            logdet_R, M, b, S2 = piece
            quad = S2 + M * (beta - b) ** 2
            return (-0.5 * n * np.log(2.0 * np.pi * sig2) - 0.5 * logdet_R
                    - quad / (2.0 * sig2) - a_t * np.log(sig2))

        def log_component(piece):
            _, M, b, S2 = piece
            log_ig = (k * np.log(S2 / 2.0) - gammaln(k)
                      - (k + 1.0) * np.log(sig2) - S2 / (2.0 * sig2))
            log_n = (-0.5 * np.log(2.0 * np.pi * sig2 / M)
                     - M * (beta - b) ** 2 / (2.0 * sig2))
            return log_ig + log_n

        log_mix = np.logaddexp(log_component(pieces[0]),
                               log_component(pieces[1])) - np.log(2.0)
        w_a = np.exp(log_target(pieces[0]) - log_mix)
        w_b = np.exp(log_target(pieces[1]) - log_mix)
        diff = np.log(w_a.mean()) - np.log(w_b.mean())
        g = w_a / w_a.mean() - w_b / w_b.mean()
        return diff, g.std(ddof=1) / np.sqrt(n_samples)

    def test_log_likelihood_differences_match_million_sample_integral(self):
        t0 = time.time()
        rng = np.random.default_rng(31)
        worst = 0.0
        details = []
        for trial, (fam, shape) in enumerate(
            (("matern", 2.5), ("power_exponential", 1.9))
        ):
            X = rng.uniform(size=(5, 1))
            y = np.sin(5.0 * X[:, 0]) + 0.3 * rng.standard_normal(5)
            lv = assemble([(X, y)]).levels[0]
            spec = KernelSpec(family=fam, shape=shape, dims=1)
            phi_a, phi_b = np.array([0.3]), np.array([1.2])
            want = (integrated_log_likelihood(lv, RangeParams(phi_a), spec, 1.0)
                    - integrated_log_likelihood(lv, RangeParams(phi_b), spec, 1.0))
            got, se = self._mc_log_ratio(lv, spec, phi_a, phi_b, 1_000_000, 100 + trial)
            z = abs(got - want) / se
            worst = max(worst, z)
            details.append(f"{fam} z={z:.2f}")
        elapsed = time.time() - t0
        ok = worst < 3.0 and elapsed < 120.0
        assert _report(
            3, "integrated likelihood vs 1e6-sample integration", ok,
            f"{', '.join(details)}, limit 3; {elapsed:.1f}s of 120s",
        )


class TestDerivativeAndFisherChecks:
    def test_analytic_derivatives_and_information_identities(self):
        rng = np.random.default_rng(99)
        worst_fd = 0.0
        psd_ok = sym_ok = True
        worst_j = 0.0
        for trial in range(5):
            X = rng.uniform(size=(5, 2))
            spec = KernelSpec(
                family=("matern", "power_exponential")[trial % 2],
                shape=(2.5, 1.9)[trial % 2], dims=2,
            )
            phi = rng.uniform(0.3, 1.5, size=2)
            for k in range(2):
                dR = corr_matrix_deriv(X, RangeParams(phi), spec, k)
                step = 1e-6 * phi[k]
                up, dn = phi.copy(), phi.copy()
                up[k] += step
                dn[k] -= step
                fd = (corr_matrix(X, RangeParams(up), spec)
                      - corr_matrix(X, RangeParams(dn), spec)) / (2.0 * step)
                rel = (np.linalg.norm(fd - dR) / np.linalg.norm(dR)
                       if np.linalg.norm(dR) > 0 else np.linalg.norm(fd))
                worst_fd = max(worst_fd, rel)

            y = rng.standard_normal(5)
            lv = assemble([(X, y)]).levels[0]
            params = RangeParams(phi)
            for info in (fisher_info_reference(lv, params, spec),
                         fisher_info_jeffreys(lv, params, spec)):
                sym_ok &= bool(np.array_equal(info, info.T))
                eig = np.linalg.eigvalsh(info)
                psd_ok &= bool(eig.min() >= -1e-10 * max(eig.max(), 1.0))

            j1 = log_jeffreys_prior(lv, params, spec, variant="j1")
            j2 = log_jeffreys_prior(lv, params, spec, variant="j2")
            R = corr_matrix(X, params, spec)
            H = lv.design
            want = 0.5 * np.linalg.slogdet(H.T @ np.linalg.solve(R, H))[1]
            worst_j = max(worst_j, abs((j2 - j1) - want))
        ok = worst_fd < 1e-6 and sym_ok and psd_ok and worst_j < 1e-10
        assert _report(
            4, "derivative and Fisher identities", ok,
            f"max FD rel err={worst_fd:.2e} (<1e-6), symmetric={sym_ok}, "
            f"PSD={psd_ok}, max |(J2-J1)-halflogdet|={worst_j:.2e} (<1e-10)",
        )


class TestImproprietyDiagnostics:
    def test_flat_tails_and_reference_decay_on_intercept_design(self):
        t0 = time.time()
        rng = np.random.default_rng(42)
        X = 1000.0 * rng.uniform(size=(6, 1))
        y = np.sin(0.004 * X[:, 0]) + 0.3 * rng.standard_normal(6)
        lv = assemble([(X, y)]).levels[0]
        # rough kernel keeps every eigenvalue above the jitter across the span
        spec = KernelSpec(family="matern", shape=0.5, dims=1)
        grid = np.array([1e-8, 1e-6, 1e5, 1e7])
        ll = tail_probe(lv, spec, 1.0, grid)
        flat_large = abs(ll[3] - ll[2])
        flat_small = abs(ll[1] - ll[0])
        ref = PriorSpec(kind="reference")
        lp5 = log_prior(lv, RangeParams(np.array([1e5])), spec, ref)
        lp7 = log_prior(lv, RangeParams(np.array([1e7])), spec, ref)
        drop = (ll[2] + lp5) - (ll[3] + lp7)
        elapsed = time.time() - t0
        ok = (np.isfinite(ll).all() and flat_large < 0.1 and flat_small < 1e-3
              and drop > 5.0 and elapsed < 10.0)
        assert _report(
            5, "impropriety diagnostics on intercept design", ok,
            f"flat-prior tail delta={flat_large:.2e} (<0.1), zero-limit "
            f"delta={flat_small:.2e} (<1e-3), reference drop={drop:.1f} (>5); "
            f"{elapsed:.1f}s of 10s",
        )

    def test_jointly_robust_tail_decays_on_borehole_level1(self):
        """The jointly robust prior is a density on 1/phi, so its xi-space
        posterior must fall along the isotropic ray and its fit must keep
        every range bounded."""
        t0 = time.time()
        U, low_idx, _, _ = replicate_design(0, 0, 80, 30, 20)
        X_phys = scale_to_box(U)
        y = np.array([borehole_low(X_phys[i]) for i in low_idx])
        lv = assemble([(U[low_idx], y)]).levels[0]
        spec = KernelSpec(family="power_exponential", shape=1.9, dims=8)
        jr = PriorSpec(kind="jointly_robust")
        ray = [objective(lv, np.full(8, -np.log(g)), spec, jr) for g in (1.0, 1e4, 1e8)]
        drop = ray[1] - ray[2]
        lf = fit_level(lv, spec, jr, OptimOptions(seed=0, n_starts=2, max_evals=600))
        limit = RUNAWAY_SPAN_FACTOR * np.ptp(lv.inputs, axis=0)
        bounded = bool(np.all(lf.phi < limit))
        elapsed = time.time() - t0
        ok = ray[2] < ray[0] and drop > 5.0 and bounded and elapsed < 30.0
        assert _report(
            "5b", "jointly robust tail decay on borehole level 1", ok,
            f"objective at phi=1/1e4/1e8: {ray[0]:.1f}/{ray[1]:.1f}/{ray[2]:.1f}, "
            f"drop 1e4->1e8={drop:.1f} (>5); fitted ranges < {RUNAWAY_SPAN_FACTOR:.0e} "
            f"x span: {bounded} (largest {lf.phi.max():.3g}); {elapsed:.1f}s of 30s",
        )


class TestByteDeterminism:
    def test_every_command_reproduces_identical_artifacts(self, tmp_path, capsys):
        t0 = time.time()
        rng = np.random.default_rng(0)
        X1 = rng.uniform(size=(12, 2))
        X2 = X1[:6]
        y1 = np.sin(3.0 * X1[:, 0]) + X1[:, 1] + 0.15 * rng.standard_normal(12)
        y2 = 1.3 * y1[:6] + 0.4 * np.cos(2.0 * X2[:, 1])
        p1, p2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
        write_level_csv(p1, X1, y1)
        write_level_csv(p2, X2, y2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kernel": {"family": "matern", "shape": 2.5},
            "prior": {"kind": "reference"},
            "optimizer": {"n_starts": 2, "max_evals": 150, "tol": 1e-6},
        }))
        grid = tmp_path / "grid.csv"
        pts = rng.uniform(size=(4, 2))
        grid.write_text("x1,x2\n" + "\n".join(
            f"{float(a)!r},{float(b)!r}" for a, b in pts) + "\n")
        bench_cfg = tmp_path / "bcfg.json"
        bench_cfg.write_text(json.dumps(
            {"optimizer": {"n_starts": 2, "max_evals": 250, "tol": 1e-6}}))

        artifacts = {
            "fit": ["model.json", "fit_summary.txt", "fit_config.json"],
            "predict": ["predictions.csv", "predict_config.json"],
            "sample": ["draws.csv", "sample_config.json"],
            "tailprobe": ["tailprobe_level1.csv", "tailprobe_config.json"],
            "benchmark": ["benchmark_report.json", "benchmark_replicates.csv"],
        }
        outs = {}
        # both runs read the first fit's model so the echoed configs are
        # comparable byte for byte
        model_path = tmp_path / "fit_a" / "model.json"
        for run in ("a", "b"):
            fit_out = tmp_path / f"fit_{run}"
            assert cli_main(["fit", "--config", str(cfg), "--level", str(p1),
                             "--level", str(p2), "--out", str(fit_out)]) == 0
            pred_out = tmp_path / f"pred_{run}"
            assert cli_main(["predict", "--model", str(model_path),
                             "--grid", str(grid), "--draws", "300",
                             "--out", str(pred_out)]) == 0
            samp_out = tmp_path / f"samp_{run}"
            assert cli_main(["sample", "--model", str(model_path),
                             "--x0", "0.4,0.6", "--draws", "200", "--seed", "5",
                             "--out", str(samp_out)]) == 0
            tail_out = tmp_path / f"tail_{run}"
            assert cli_main(["tailprobe", "--level", str(p1), "--level", str(p2),
                             "--phi-grid", "0.5,1.0,2.0",
                             "--out", str(tail_out)]) == 0
            bench_out = tmp_path / f"bench_{run}"
            assert cli_main(["benchmark", "--config", str(bench_cfg),
                             "--n-low", "14", "--n-high", "7", "--n-test", "5",
                             "--reps", "2", "--seed", "3",
                             "--out", str(bench_out)]) == 0
            outs[run] = {"fit": fit_out, "predict": pred_out, "sample": samp_out,
                         "tailprobe": tail_out, "benchmark": bench_out}
        capsys.readouterr()
        mismatched = []
        for cmd, files in artifacts.items():
            for name in files:
                if ((outs["a"][cmd] / name).read_bytes()
                        != (outs["b"][cmd] / name).read_bytes()):
                    mismatched.append(f"{cmd}/{name}")
        elapsed = time.time() - t0
        ok = not mismatched
        n_checked = sum(len(v) for v in artifacts.values())
        assert _report(
            7, "byte-level determinism of all commands", ok,
            f"{n_checked} artifacts compared across two runs of five commands, "
            f"mismatches={mismatched or 'none'}; {elapsed:.1f}s",
        )


# a range above this multiple of its input's span in the level's design has
# run away: the input has dropped out of the correlation
RUNAWAY_SPAN_FACTOR = 1e3
PHI_KEYS = ("phi_level1", "phi_level2")


def _runaway_flags(report, n_low, n_high, n_test):
    """Per replicate, one boolean array per level marking the ranges above
    ``RUNAWAY_SPAN_FACTOR`` times that input's span in the level's design;
    ``None`` for a replicate that failed to fit."""
    flags = []
    for rep in report.replicates:
        if rep["failed"]:
            flags.append(None)
            continue
        U, low_idx, high_idx, _ = replicate_design(
            rep["replicate"], report.seed, n_low, n_high, n_test)
        spans = (np.ptp(U[low_idx], axis=0), np.ptp(U[high_idx], axis=0))
        flags.append([np.asarray(rep[key]) > RUNAWAY_SPAN_FACTOR * span
                      for key, span in zip(PHI_KEYS, spans)])
    return flags


def _largest_range(report):
    """``(phi, level)`` of the largest fitted range over all replicates."""
    return max((max(rep[key]), level)
               for rep in report.replicates if not rep["failed"]
               for level, key in enumerate(PHI_KEYS, start=1))


def _objective_vs_plugin(ref, plug, n_low, n_high, n_test):
    """What the objective prior promises over the prior-free plug-in: every
    replicate fitted, posterior-mode ranges bounded, plug-in ranges running
    away, and no loss of coverage.  Returns ``{clause: (ok, detail)}``."""
    ref_flags = _runaway_flags(ref, n_low, n_high, n_test)
    plug_flags = _runaway_flags(plug, n_low, n_high, n_test)
    n_bounded = sum(f is not None and not any(a.any() for a in f) for f in ref_flags)
    n_runaway = sum(f is not None and any(a.any() for a in f) for f in plug_flags)
    ref_max, ref_lv = _largest_range(ref)
    plug_max, plug_lv = _largest_range(plug)
    return {
        "complete": (
            ref.n_failed == 0 and plug.n_failed == 0,
            f"failed replicates objective={ref.n_failed} plug-in={plug.n_failed}, none allowed",
        ),
        "bounded": (
            n_bounded == len(ref_flags),
            f"objective ranges < {RUNAWAY_SPAN_FACTOR:.0e} x span in {n_bounded}/"
            f"{len(ref_flags)} replicates, largest {ref_max:.3g} at level {ref_lv}",
        ),
        "runaway": (
            n_runaway == len(plug_flags),
            f"plug-in range > {RUNAWAY_SPAN_FACTOR:.0e} x span in {n_runaway}/"
            f"{len(plug_flags)} replicates, largest {plug_max:.3g} at level {plug_lv}",
        ),
        "coverage": (
            ref.cvg95 >= plug.cvg95,
            f"objective CVG={ref.cvg95:.2f} >= plug-in CVG={plug.cvg95:.2f}",
        ),
    }


class TestBoreholeReplicates:
    def test_replicated_benchmark_ranges_and_interval_comparison(self):
        n_low, n_high, n_test = 80, 30, 20
        opts = OptimOptions(seed=0, n_starts=4)
        walls = []

        def timed_run(**kwargs):
            t_run = time.time()
            report = run_borehole_benchmark(
                n_low=n_low, n_high=n_high, n_test=n_test, seed=0, n_reps=10,
                opts=opts, **kwargs)
            walls.append(time.time() - t_run)
            return report

        t0 = time.time()
        mat = timed_run(
            prior=PriorSpec(kind="reference"),
            spec=KernelSpec(family="matern", shape=2.5, dims=8))
        pow_ref = timed_run(
            prior=PriorSpec(kind="reference"),
            spec=KernelSpec(family="power_exponential", shape=1.9, dims=8))
        pow_plug = timed_run(
            prior=PriorSpec(kind="reference"),
            spec=KernelSpec(family="power_exponential", shape=1.9, dims=8),
            method=PLUGIN)
        elapsed = time.time() - t0
        mat_ok = 0.15 <= mat.rmspe <= 1.5 and mat.cvg95 >= 0.7
        pow_ok = 0.3 <= pow_ref.rmspe <= 2.0
        clauses = _objective_vs_plugin(pow_ref, pow_plug, n_low, n_high, n_test)
        budget_ok = elapsed < 900.0
        ok = mat_ok and pow_ok and all(c[0] for c in clauses.values()) and budget_ok
        ratios = " ".join(
            f"{r['alci95'] / p['alci95']:.3f}"
            for r, p in zip(pow_ref.replicates, pow_plug.replicates)
            if not (r["failed"] or p["failed"]))
        assert _report(
            6, "borehole replicated benchmark", ok,
            f"matern ref RMSPE={mat.rmspe:.3f} in [0.15,1.5] CVG={mat.cvg95:.2f}"
            f">=0.7: {_verdict(mat_ok)}; powexp ref RMSPE={pow_ref.rmspe:.3f} in "
            f"[0.3,2.0]: {_verdict(pow_ok)}; "
            + "; ".join(f"{detail}: {_verdict(c_ok)}" for c_ok, detail in clauses.values())
            + f"; objective ALCI={pow_ref.alci95:.3f}, plug-in ALCI={pow_plug.alci95:.3f}, "
            f"paired ratios {ratios}; runs matern/powexp ref/powexp plug-in "
            f"{walls[0]:.0f}/{walls[1]:.0f}/{walls[2]:.0f}s, total {elapsed:.0f}s "
            f"of 900s: {_verdict(budget_ok)}",
        )
