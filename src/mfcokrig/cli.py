"""Command-line entry point.

Subcommands: ``fit``, ``predict``, ``sample``, ``benchmark``, ``tailprobe``.
Configuration comes from an optional JSON file (``--config``) overridden by
flags; every run echoes its resolved configuration into the output
directory so results are reproducible from the artifacts alone.

``main`` reads the config file and makes the output directory once, then
hands both to the subcommand.  Exit codes: 0 success; 2 for a validation
failure (``_VALIDATION_ERRORS``: a bad configuration or argument, an
unreadable or unwritable file); 3 for every other library error.
"""

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .bench import BOREHOLE_DIM, run_borehole_benchmark
from .estimate import PLUGIN, POSTERIOR, OptimOptions, assemble, fit, tail_probe
from .exceptions import (
    ConfigError,
    DomainError,
    DuplicateRowError,
    InvalidArgumentError,
    MfcokrigError,
    NestingError,
)
from .kernels import KernelSpec
from .modelio import (
    check_keys,
    dump_json,
    load_level_csv,
    load_model,
    read_json_object,
    read_record,
    record,
    save_model,
    write_draws_csv,
    write_predictions_csv,
    write_replicates_csv,
    write_tailprobe_csv,
    write_text,
)
from .predict import CokrigingModel
from .priors import PRIOR_KINDS, PriorSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ESTIMATION = 3

_VALIDATION_ERRORS = (
    ConfigError,
    InvalidArgumentError,
    DomainError,
    NestingError,
    DuplicateRowError,
    OSError,
)

_CONFIG_KEYS = {
    "levels",
    "grid",
    "kernel",
    "prior",
    "optimizer",
    "method",
    "out",
    "benchmark",
}

# the keys each nested section may hold: the fields of the record it
# builds (a kernel's dims come from the data), or the benchmark's sizes
_SECTION_KEYS = {
    "kernel": {f.name for f in fields(KernelSpec)} - {"dims"},
    "prior": {f.name for f in fields(PriorSpec)},
    "optimizer": {f.name for f in fields(OptimOptions)},
    "benchmark": {"n_low", "n_high", "n_test", "n_reps"},
}


def _load_config(path):
    if path is None:
        return {}
    cfg = read_json_object(path, "config file")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(
            f"unknown config keys: {sorted(unknown)}; expected {sorted(_CONFIG_KEYS)}"
        )
    for section, allowed in _SECTION_KEYS.items():
        check_keys(cfg.get(section, {}), section, allowed)
    for key in ("grid", "out"):
        if key in cfg and not (isinstance(cfg[key], str) and cfg[key]):
            raise ConfigError(
                f"config '{key}' must be a non-empty path string, got {cfg[key]!r}"
            )
    levels = cfg.get("levels", [])
    if not (isinstance(levels, list) and all(isinstance(p, str) for p in levels)):
        raise ConfigError(f"config 'levels' must be a JSON array of paths, got {levels!r}")
    return cfg


def _section(cfg, args, name):
    """Config section ``name`` with the flags given on the command line
    laid over it: each flag's destination is the section key it sets."""
    section = dict(cfg.get(name, {}))
    for key in _SECTION_KEYS[name]:
        if getattr(args, key, None) is not None:
            section[key] = getattr(args, key)
    return section


def _record(cfg, args, section, cls, **defaults):
    """The ``cls`` record that config ``section`` and the flags laid over it
    describe; ``defaults`` fill the fields that neither sets."""
    payload = {**defaults, **_section(cfg, args, section)}
    return read_record(cls, payload, section, partial=True)


def _spec_and_prior(cfg, args, dims):
    """The kernel of ``dims`` inputs and the prior of a command that builds
    both."""
    return (
        _record(cfg, args, "kernel", KernelSpec, family="power_exponential", dims=dims),
        _record(cfg, args, "prior", PriorSpec, kind="reference"),
    )


def _model(path):
    """The data and the model of the model file at ``path``."""
    data, result = load_model(path)
    return data, CokrigingModel(data, result)


def _load_levels(cfg, args):
    paths = args.level or cfg.get("levels", [])
    if not paths:
        raise ConfigError("no level data given; pass --level or config 'levels'")
    raw = [load_level_csv(p) for p in paths]
    d = raw[0][0].shape[1]
    for p, (X, _) in zip(paths, raw):
        if X.shape[1] != d:
            raise ConfigError(
                f"{p} has {X.shape[1]} input columns but the first level has {d}"
            )
    return paths, raw, d


def _echo_config(out, name, payload):
    dump_json(payload, os.path.join(out, f"{name}_config.json"))


def cmd_fit(args, cfg, out):
    paths, raw, dims = _load_levels(cfg, args)
    spec, prior = _spec_and_prior(cfg, args, dims)
    opts = _record(cfg, args, "optimizer", OptimOptions)
    method = args.method or cfg.get("method", POSTERIOR)
    data = assemble(raw)
    result = fit(data, spec, prior, opts, method=method)
    model_path = os.path.join(out, "model.json")
    save_model(model_path, data, result)
    _echo_config(
        out,
        "fit",
        {
            "levels": paths,
            "kernel": record(spec),
            "prior": record(prior),
            "optimizer": record(opts),
            "method": method,
        },
    )
    lines = [
        f"fitted {data.s}-level model ({method}, prior={prior.kind}, "
        f"kernel={spec.family})"
    ]
    for lf in result.levels:
        phi_txt = ", ".join(f"{v:.6g}" for v in lf.phi)
        lines.append(
            f"level {lf.level}: n={data.levels[lf.level - 1].n} "
            f"phi=({phi_txt}) sigma2={lf.sigma2_hat:.6g} "
            f"objective={lf.objective_value:.6g} converged={lf.converged}"
        )
        if lf.gamma is not None:
            lines[-1] += f" gamma={lf.gamma:.6g}"
    summary = "\n".join(lines) + "\n"
    write_text(os.path.join(out, "fit_summary.txt"), summary)
    sys.stdout.write(summary)
    sys.stdout.write(f"model written to {model_path}\n")
    return EXIT_OK


def cmd_predict(args, cfg, out):
    grid_path = args.grid or cfg.get("grid")
    if grid_path is None:
        raise ConfigError("no prediction grid given; pass --grid or config 'grid'")
    data, model = _model(args.model)
    X0, _ = load_level_csv(grid_path, y_optional=True)
    if X0.shape[1] != data.dims:
        raise ConfigError(
            f"{grid_path} has {X0.shape[1]} input columns but the model "
            f"expects {data.dims}"
        )
    pred, intervals = model._read(X0, 0.95)
    pred_path = os.path.join(out, "predictions.csv")
    write_predictions_csv(pred_path, X0, pred, intervals)
    _echo_config(out, "predict", {"model": args.model, "grid": grid_path})
    sys.stdout.write(
        f"predicted {X0.shape[0]} points at {data.s} level(s); wrote {pred_path}\n"
    )
    return EXIT_OK


def cmd_sample(args, cfg, out):
    data, model = _model(args.model)
    try:
        x0 = np.array([float(v) for v in args.x0.split(",")])
    except ValueError as exc:
        raise ConfigError(f"--x0 must be comma-separated floats ({exc})") from exc
    if x0.size != data.dims:
        raise ConfigError(f"--x0 has {x0.size} coordinates, model expects {data.dims}")
    seed = args.seed if args.seed is not None else 0
    draws = model.sample_predictive(x0, args.draws, seed=seed)
    path = os.path.join(out, "draws.csv")
    write_draws_csv(path, draws)
    _echo_config(
        out,
        "sample",
        {"model": args.model, "x0": [float(v) for v in x0], "draws": args.draws, "seed": seed},
    )
    sys.stdout.write(f"wrote {args.draws} joint draws to {path}\n")
    return EXIT_OK


def cmd_benchmark(args, cfg, out):
    # sizes left out take run_borehole_benchmark's defaults
    sizes = _section(cfg, args, "benchmark")
    spec, prior = _spec_and_prior(cfg, args, BOREHOLE_DIM)
    opts = _record(cfg, args, "optimizer", OptimOptions)
    method = args.method or cfg.get("method", POSTERIOR)
    report = run_borehole_benchmark(
        prior=prior, spec=spec, seed=opts.seed, method=method, opts=opts, **sizes
    )
    json_path = os.path.join(out, "benchmark_report.json")
    csv_path = os.path.join(out, "benchmark_replicates.csv")
    dump_json(report.to_dict(), json_path)
    write_replicates_csv(csv_path, report)
    sys.stdout.write(
        f"borehole benchmark ({method}, prior={prior.kind}, kernel={spec.family}, "
        f"{report.config['n_reps']} replicates): median RMSPE={report.rmspe:.4g} "
        f"CVG95={report.cvg95:.3f} ALCI95={report.alci95:.4g} "
        f"failures={report.n_failed}\n"
    )
    sys.stdout.write(f"report written to {json_path} and {csv_path}\n")
    return EXIT_OK


def cmd_tailprobe(args, cfg, out):
    paths, raw, dims = _load_levels(cfg, args)
    spec, prior = _spec_and_prior(cfg, args, dims)
    data = assemble(raw)
    if not 1 <= args.level_index <= data.s:
        raise ConfigError(
            f"--level-index must lie in [1, {data.s}], got {args.level_index}"
        )
    lv = data.levels[args.level_index - 1]
    if args.phi_grid:
        try:
            grid = np.array([float(v) for v in args.phi_grid.split(",")])
        except ValueError as exc:
            raise ConfigError(f"--phi-grid must be comma-separated floats ({exc})") from exc
    elif args.n_grid == 0:
        grid = np.empty(0)
    else:
        if args.n_grid < 0:
            raise ConfigError(f"--n-grid must be >= 0, got {args.n_grid}")
        if args.phi_min <= 0 or args.phi_max <= args.phi_min:
            raise ConfigError("need 0 < --phi-min < --phi-max")
        grid = np.geomspace(args.phi_min, args.phi_max, args.n_grid)
    loglik, logprior = tail_probe(lv, spec, prior, grid)
    logpost = loglik + logprior
    path = os.path.join(out, f"tailprobe_level{args.level_index}.csv")
    write_tailprobe_csv(path, grid, loglik, logprior, logpost)
    _echo_config(
        out,
        "tailprobe",
        {
            "levels": paths,
            "level_index": args.level_index,
            "kernel": record(spec),
            "prior": record(prior),
            "phi_grid": [float(g) for g in grid],
        },
    )
    sys.stdout.write(f"wrote {grid.size} probe points to {path}\n")
    return EXIT_OK


def _add_common(parser, seed=True):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (default: current)")
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="master seed")


def _add_spec_flags(parser, fits=True):
    """Kernel and prior flags, for the commands that build a kernel and a
    prior (``predict`` and ``sample`` read theirs from the model file),
    and with ``fits`` the ``--starts`` and ``--method`` of a command that
    fits.  Each flag's destination is the name of the field it sets."""
    parser.add_argument(
        "--prior",
        dest="kind",
        choices=PRIOR_KINDS,
        default=None,
        help="prior for the range parameters",
    )
    parser.add_argument(
        "--kernel",
        dest="family",
        choices=("power_exponential", "matern"),
        default=None,
        help="correlation family",
    )
    parser.add_argument(
        "--shape",
        type=float,
        default=None,
        help="roughness (power_exponential) or smoothness (matern)",
    )
    parser.add_argument("--nugget", type=float, default=None, help="diagonal jitter")
    parser.add_argument("--jr-a0", type=float, default=None, help="jointly robust a0")
    parser.add_argument("--jr-b0", type=float, default=None, help="jointly robust b0")
    if fits:
        parser.add_argument(
            "--starts",
            dest="n_starts",
            metavar="STARTS",
            type=int,
            default=None,
            help="most optimizer starts per level; a level stops once two starts "
            "agree on its best value",
        )
        parser.add_argument(
            "--method",
            choices=(POSTERIOR, PLUGIN),
            default=None,
            help="posterior maximization or the plug-in baseline",
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mfcokrig",
        description=(
            "Multifidelity emulation with autoregressive cokriging and "
            "objective-Bayes range estimation"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="estimate a model from per-level CSVs")
    _add_common(p_fit)
    _add_spec_flags(p_fit)
    p_fit.add_argument(
        "--level",
        action="append",
        help="per-level CSV (repeat, lowest fidelity first)",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="predict at grid points from a model file")
    _add_common(p_pred)
    p_pred.add_argument("--model", required=True, help="model JSON from fit")
    p_pred.add_argument("--grid", help="CSV of query points")
    p_pred.set_defaults(func=cmd_predict)

    p_sample = sub.add_parser("sample", help="joint predictive draws at one point")
    _add_common(p_sample)
    p_sample.add_argument("--model", required=True, help="model JSON from fit")
    p_sample.add_argument("--x0", required=True, help="comma-separated coordinates")
    p_sample.add_argument("--draws", type=int, default=1000, help="number of draws")
    p_sample.set_defaults(func=cmd_sample)

    p_bench = sub.add_parser("benchmark", help="seeded borehole benchmark")
    _add_common(p_bench)
    _add_spec_flags(p_bench)
    p_bench.add_argument("--n-low", type=int, default=None)
    p_bench.add_argument("--n-high", type=int, default=None)
    p_bench.add_argument("--n-test", type=int, default=None)
    p_bench.add_argument("--reps", dest="n_reps", type=int, default=None)
    p_bench.set_defaults(func=cmd_benchmark)

    p_tail = sub.add_parser(
        "tailprobe", help="integrated likelihood and prior along a range ray"
    )
    _add_common(p_tail, seed=False)
    _add_spec_flags(p_tail, fits=False)
    p_tail.add_argument("--level", action="append", help="per-level CSV (repeat)")
    p_tail.add_argument(
        "--level-index", type=int, default=1, help="one-based level to probe"
    )
    p_tail.add_argument("--phi-min", type=float, default=1e-6)
    p_tail.add_argument("--phi-max", type=float, default=1e6)
    p_tail.add_argument("--n-grid", type=int, default=25)
    p_tail.add_argument(
        "--phi-grid", default=None, help="explicit comma-separated grid (overrides range)"
    )
    p_tail.set_defaults(func=cmd_tailprobe)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        # an empty directory name would mean the working directory
        if args.out == "":
            raise ConfigError("--out must name a directory, got ''")
        out = args.out or cfg.get("out", ".")
        os.makedirs(out, exist_ok=True)
        return args.func(args, cfg, out)
    except _VALIDATION_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except MfcokrigError as exc:
        sys.stderr.write(f"estimation error: {exc}\n")
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
