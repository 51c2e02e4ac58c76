"""Span tracing of the mfcokrig layers from outside the package.

Nothing inside ``src/`` is instrumented.  ``Tracer.install`` replaces each
public entry point under the name its caller looks it up by (for example
``gp.corr_matrix``, which ``gls_fit`` calls, or ``estimate.objective``,
which the optimizer closure calls) with a wrapper that records one span:
name, start, end, parent span and a few attributes taken from the
arguments or the result.  Spans stay in memory; ``write_jsonl`` dumps them
when the run ends and ``layer_metrics`` derives the per-layer numbers.

The process is single-threaded, so one stack of open spans gives each new
span its parent.
"""

import functools
import json
import time

import numpy as np

from mfcokrig import bench, cli, estimate, gp, modelio, optim, predict, priors
from mfcokrig.estimate import SENTINEL_THRESHOLD

# span fields, kept as lists for cheap mutation
NAME, START, END, PARENT, ATTRS = range(5)

KERNEL_BUILDS = ("kernels.corr_matrix", "kernels.corr_matrix_with_derivs")


def _nbytes(args, kwargs, out):
    if isinstance(out, tuple):
        return {"nbytes": sum(a.nbytes for a in out)}
    return {"nbytes": out.nbytes}


def _objective_attrs(args, kwargs, out):
    return {"sentinel": out <= SENTINEL_THRESHOLD}


def _level_attrs(args, kwargs, out):
    return {"level": args[0].index}


def _optim_attrs(args, kwargs, out):
    return {"n_evals": out.n_evals, "converged": out.converged, "fun": out.fun}


def _rows_attrs(args, kwargs, out):
    return {"rows": out.means.shape[0]}


# (namespace, attribute, span name, attribute extractor); each entry is the
# name a caller resolves at call time, so patching it captures that call
PATCHES = (
    (gp, "corr_matrix", "kernels.corr_matrix", _nbytes),
    (priors, "corr_matrix_with_derivs", "kernels.corr_matrix_with_derivs", _nbytes),
    (predict, "cross_corr", "kernels.cross_corr", None),
    (estimate, "gls_fit", "gp.gls_fit", None),
    (predict, "gls_fit", "gp.gls_fit", None),
    (estimate, "log_prior", "priors.log_prior", None),
    (estimate, "objective", "estimate.objective", _objective_attrs),
    (estimate, "_plugin_objective", "estimate.objective", _objective_attrs),
    (estimate, "fit_level", "estimate.fit_level", _level_attrs),
    (estimate, "fit", "estimate.fit", None),
    (optim, "nelder_mead_max", "optim.nelder_mead_max", _optim_attrs),
    (predict.CokrigingModel, "__init__", "predict.model_build", None),
    (predict.CokrigingModel, "predict", "predict.predict", _rows_attrs),
    (predict.CokrigingModel, "sample_predictive", "predict.sample_predictive", None),
    (predict.CokrigingModel, "credible_interval", "predict.credible_interval", None),
    (cli, "load_model", "modelio.load_model", None),
    (cli, "write_predictions_csv", "modelio.write_predictions_csv", None),
    (modelio, "save_model", "modelio.save_model", None),
    (cli, "cmd_predict", "cli.predict", None),
    (bench, "lhs_design", "bench.lhs_design", None),
    (bench, "scale_to_box", "bench.scale_to_box", None),
    (bench, "borehole_low", "bench.borehole_low", None),
    (bench, "borehole_high", "bench.borehole_high", None),
)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, out)
            return out

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        for owner, attr, name, attrs in PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, attrs))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "attrs": s[ATTRS],
                        }
                    )
                )
                fh.write("\n")


def _attr(span, key):
    """Span attribute, or None when the traced call raised."""
    return None if span[ATTRS] is None else span[ATTRS][key]


def _ms(spans):
    return [1000.0 * (s[END] - s[START]) for s in spans]


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _self_frac(spans, children):
    total = sum(s[END] - s[START] for s in spans)
    if total <= 0.0:
        return 0.0
    kids = sum(c[END] - c[START] for c in children)
    return (total - kids) / total


def layer_metrics(spans, op_root):
    """Per-layer metrics from the spans of one traced run.

    Counts and per-call timings come from spans below ``op_root`` spans,
    the benchmark's timed operations; calls are per operation.  The set-up
    metrics (data generation, model save, model build) use every span.
    """
    n = len(spans)
    root = [None] * n  # name of the outermost ancestor
    in_eval = [False] * n  # has an estimate.objective ancestor
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            root[i] = s[NAME]
        else:
            root[i] = root[p]
            in_eval[i] = in_eval[p] or spans[p][NAME] == "estimate.objective"
    by_name = {}
    children = {}
    for i, s in enumerate(spans):
        if root[i] == op_root:
            by_name.setdefault(s[NAME], []).append(i)
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(spans[i])
    n_ops = max(1, len(by_name.get(op_root, ())))

    def get(name):
        return [spans[i] for i in by_name.get(name, ())]

    def kids_of(name):
        return [c for i in by_name.get(name, ()) for c in children.get(i, ())]

    def everywhere(name):
        return [s for s in spans if s[NAME] == name]

    m = {}
    for name in (
        "kernels.corr_matrix",
        "kernels.corr_matrix_with_derivs",
        "kernels.cross_corr",
        "gp.gls_fit",
        "priors.log_prior",
        "predict.sample_predictive",
        "predict.credible_interval",
    ):
        m[f"{name}.calls"] = len(get(name)) / n_ops
        m[f"{name}.ms_p50"] = _pct(_ms(get(name)), 50)
    for name in ("gp.gls_fit", "priors.log_prior"):
        m[f"{name}.self_frac"] = _self_frac(get(name), kids_of(name))

    evals = get("estimate.objective")
    eval_builds = [
        spans[i]
        for name in KERNEL_BUILDS
        for i in by_name.get(name, ())
        if in_eval[i]
    ]
    n_evals = len(evals)
    m["kernels.bytes_per_eval"] = (
        sum(_attr(s, "nbytes") or 0 for s in eval_builds) / n_evals if n_evals else 0.0
    )
    m["estimate.objective.calls"] = n_evals / n_ops
    m["estimate.objective.ms_p50"] = _pct(_ms(evals), 50)
    m["estimate.objective.ms_p99"] = _pct(_ms(evals), 99)
    m["estimate.r_builds_per_eval"] = len(eval_builds) / n_evals if n_evals else 0.0
    m["estimate.sentinel_frac"] = (
        sum(bool(_attr(s, "sentinel")) for s in evals) / n_evals if n_evals else 0.0
    )
    for level in (1, 2):
        secs = [s[END] - s[START] for s in get("estimate.fit_level")
                if _attr(s, "level") == level]
        m[f"estimate.fit_level_s.level{level}"] = _pct(secs, 50)

    starts = get("optim.nelder_mead_max")
    n_starts = len(starts)
    yields = 0
    for i in by_name.get("estimate.fit_level", ()):
        funs = [_attr(c, "fun") for c in children.get(i, ())
                if c[NAME] == "optim.nelder_mead_max" and c[ATTRS] is not None]
        if funs:
            yields += sum(f >= max(funs) - 1e-6 for f in funs)
    total_evals = sum(_attr(s, "n_evals") or 0 for s in starts)
    m["optim.evals_per_start"] = total_evals / n_starts if n_starts else 0.0
    m["optim.converged_frac"] = (
        sum(bool(_attr(s, "converged")) for s in starts) / n_starts if n_starts else 0.0
    )
    m["optim.start_yield"] = yields / n_starts if n_starts else 0.0
    nm_self = sum(s[END] - s[START] for s in starts) - sum(
        c[END] - c[START] for c in kids_of("optim.nelder_mead_max")
    )
    m["optim.self_ms_per_eval"] = 1000.0 * nm_self / total_evals if total_evals else 0.0

    m["predict.model_build_ms"] = _pct(_ms(everywhere("predict.model_build")), 50)
    preds = get("predict.predict")
    rows = sum(_attr(s, "rows") or 0 for s in preds)
    m["predict.predict_ms_per_1k"] = (
        sum(_ms(preds)) * 1000.0 / rows if rows else 0.0
    )
    m["modelio.load_model.ms"] = _pct(_ms(get("modelio.load_model")), 50)
    m["modelio.save_model.ms"] = _pct(_ms(everywhere("modelio.save_model")), 50)
    m["modelio.write_predictions_csv.ms"] = _pct(
        _ms(get("modelio.write_predictions_csv")), 50
    )
    cli_spans = by_name.get("cli.predict", ())
    cli_self = [
        1000.0 * (
            (spans[i][END] - spans[i][START])
            - sum(c[END] - c[START] for c in children.get(i, ()))
        )
        for i in cli_spans
    ]
    m["cli.predict.self_ms"] = _pct(cli_self, 50)
    m["bench.data_gen_ms"] = _pct(_ms(everywhere("bench.data_gen")), 50)
    m["trace.spans_per_op"] = sum(1 for r in root if r == op_root) / n_ops
    return m
