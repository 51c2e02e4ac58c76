"""Model persistence and CSV interchange.

Models are stored as versioned JSON documents that embed the training data
(inputs, outputs per level), the kernel and prior configuration, and the
per-level estimates, so a loaded file is sufficient to rebuild the
predictor exactly.  Floats are written with shortest round-trip formatting;
documents are key-sorted with no timestamps, so identical runs produce
byte-identical files.

The kernel, prior, optimizer and per-level fit records are written by
``record`` and read back by ``read_record``, both driven by the records'
dataclass fields; the same reader builds records from config sections.

CSV conventions: one file per level with header ``x1,...,xd,y`` (a query
grid may drop the ``y``); values round-trip at full double precision.
"""

import csv
import dataclasses
import hashlib
import io
import json
import os

import numpy as np

from .estimate import (
    PLUGIN,
    POSTERIOR,
    XI_PARAMETERIZATION,
    CokrigingData,
    FitResult,
    LevelFit,
    OptimOptions,
    assemble,
    check_fit,
)
from .exceptions import ConfigError, InvalidArgumentError, real_array, require_types
from .kernels import KernelSpec
from .priors import PriorSpec

MODEL_SCHEMA_VERSION = 1
_DOCUMENT_KEYS = (
    "schema_version",
    "kernel",
    "prior",
    "method",
    "parameterization",
    "optimizer",
    "basis",
    "levels",
)
_LEVEL_KEYS = ("inputs", "outputs", "fingerprint", "fit")


def _fingerprint(inputs, outputs):
    """Stable digest of one level's training arrays."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(inputs, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(outputs, dtype="<f8").tobytes())
    return h.hexdigest()


def record(obj):
    """JSON-ready mapping of a ``KernelSpec``, ``PriorSpec``,
    ``OptimOptions`` or ``LevelFit``: one key per dataclass field, with
    arrays and tuples as lists of floats."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, (np.ndarray, tuple)):
            value = [float(v) for v in value]
        out[f.name] = value
    return out


def check_keys(payload, where, allowed, required=()):
    """Raise ``ConfigError`` unless ``payload`` is a JSON object holding
    only ``allowed`` keys and every ``required`` one.  Keys are named
    ``where.key``, or ``key`` at the top of a document (``where=""``)."""
    if not isinstance(payload, dict):
        raise ConfigError(f"'{where}' must be a JSON object")
    prefix = f"{where}." if where else ""
    unknown = sorted(prefix + key for key in set(payload) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys: {unknown}; expected {sorted(allowed)}")
    missing = [prefix + key for key in required if key not in payload]
    if missing:
        raise ConfigError(f"missing keys: {missing}")


def read_record(cls, payload, where, partial=False):
    """Rebuild a record of type ``cls`` from the mapping ``record`` writes.

    A model document must hold every field; a config section
    (``partial``) may leave out the fields that have a default.  Raises
    ``ConfigError`` naming ``where.key`` for a non-object, an unknown key
    or a missing key, and for a value that the record refuses, naming
    ``where.key`` when the record's message starts with that key and
    ``where`` otherwise.
    """
    fields = dataclasses.fields(cls)
    required = [
        f.name for f in fields if not partial or f.default is dataclasses.MISSING
    ]
    check_keys(payload, where, [f.name for f in fields], required)
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        name = str(exc).split(" ", 1)[0]
        key = f"{where}.{name}" if name in payload else where
        raise ConfigError(f"'{key}' holds an invalid value ({exc})") from exc


def model_document(data, fit_result):
    """Serializable dictionary capturing data, configuration, and fit."""
    levels = []
    for lv, lf in zip(data.levels, fit_result.levels):
        levels.append(
            {
                "inputs": [[float(v) for v in row] for row in lv.inputs],
                "outputs": [float(v) for v in lv.outputs],
                "fingerprint": _fingerprint(lv.inputs, lv.outputs),
                "fit": record(lf),
            }
        )
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kernel": record(fit_result.spec),
        "prior": record(fit_result.prior),
        "method": fit_result.method,
        "parameterization": fit_result.parameterization,
        "optimizer": record(fit_result.opts),
        "basis": "constant",
        "levels": levels,
    }


def _check_path(path):
    """``ConfigError`` unless ``path`` is a ``str`` or ``os.PathLike``: an
    int would be opened as a file descriptor, and closed after."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"a file path must be a str or os.PathLike, got {path!r}")


def _read_text(path, what):
    """The text of the UTF-8 file at ``path``, line endings kept and a
    byte-order mark dropped; a missing file, a directory or bytes that are
    not UTF-8 raise ``ConfigError`` naming ``what`` and the path."""
    _check_path(path)
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except (IsADirectoryError, NotADirectoryError) as exc:
        raise ConfigError(f"{what} {path}: {exc.strerror.lower()}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text ({exc.reason})") from exc


def read_json_object(path, what):
    """The JSON object in the file at ``path``, read by ``_read_text``;
    ``ConfigError`` when it holds invalid JSON or another JSON value."""
    try:
        doc = json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {path} ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return doc


def write_text(path, text):
    """Write ``text`` to the file at ``path`` as UTF-8, line endings as
    given; a missing directory, a directory or a path through a file raise
    ``ConfigError`` naming the path."""
    _check_path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise ConfigError(f"cannot write {path} ({exc.strerror})") from exc


def dump_json(payload, path):
    """Write a canonical JSON document: sorted keys, two-space indent,
    trailing newline, shortest round-trip floats."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    write_text(path, text + "\n")


def save_model(path, data, fit_result):
    """Persist a fitted model; only the constant basis is serializable."""
    require_types(("data", data, CokrigingData))
    for lv in data.levels:
        if lv.basis.shape[1] != 1 or not np.all(lv.basis == 1.0):
            raise InvalidArgumentError(
                "only constant-basis models can be persisted to JSON"
            )
    check_fit(data, fit_result)
    dump_json(model_document(data, fit_result), path)


def load_model(path):
    """Rebuild ``(CokrigingData, FitResult)`` from a model document."""
    doc = read_json_object(path, "model file")
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported model schema version {version!r}; "
            f"this build reads version {MODEL_SCHEMA_VERSION}"
        )
    check_keys(doc, "", _DOCUMENT_KEYS, _DOCUMENT_KEYS)
    expected = {
        "method": (POSTERIOR, PLUGIN),
        "parameterization": (XI_PARAMETERIZATION,),
        "basis": ("constant",),
    }
    for key, allowed in expected.items():
        if doc[key] not in allowed:
            raise ConfigError(f"'{key}' must be one of {list(allowed)}, got {doc[key]!r}")
    spec = read_record(KernelSpec, doc["kernel"], "kernel")
    prior = read_record(PriorSpec, doc["prior"], "prior")
    optimizer = doc["optimizer"]
    if isinstance(optimizer, dict):
        # documents written before OptimOptions dropped its unused
        # initial_step and its fixed start box still carry them
        retired = ("initial_step", "start_low", "start_high")
        optimizer = {k: v for k, v in optimizer.items() if k not in retired}
    opts = read_record(OptimOptions, optimizer, "optimizer")
    if not isinstance(doc["levels"], list):
        raise ConfigError("'levels' must be a JSON array")
    raw_levels = []
    fits = []
    for t, entry in enumerate(doc["levels"]):
        where = f"levels[{t}]"
        check_keys(entry, where, _LEVEL_KEYS, _LEVEL_KEYS)
        try:
            inputs = np.asarray(entry["inputs"], dtype=np.float64)
            outputs = np.asarray(entry["outputs"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"'{where}' holds ragged or non-numeric data ({exc})"
            ) from exc
        if entry["fingerprint"] != _fingerprint(inputs, outputs):
            raise ConfigError(f"model file {path} fails its data fingerprint check")
        raw_levels.append((inputs, outputs))
        lf = read_record(LevelFit, entry["fit"], f"{where}.fit")
        if lf.level != t + 1:
            raise ConfigError(f"'{where}.fit.level' must be {t + 1}, got {lf.level}")
        fits.append(lf)
    data = assemble(raw_levels, basis=doc["basis"])
    fit_result = FitResult(
        levels=tuple(fits),
        method=doc["method"],
        prior=prior,
        spec=spec,
        opts=opts,
        parameterization=doc["parameterization"],
    )
    return data, fit_result


def _format(value):
    return repr(float(value))


def load_level_csv(path, y_optional=False):
    """Read one level's ``x1..xd,y`` file into (inputs, outputs).

    With ``y_optional``, as for a query grid, a header ``x1..xd`` is
    accepted too and gives outputs of ``None``.  Every row must have one
    cell per header column.
    """
    reader = csv.reader(io.StringIO(_read_text(path, "data file"), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path} is empty; expected a header row")
    rows = [(reader.line_num, row) for row in reader if row]
    header = [h.strip() for h in header]
    has_y = header[-1:] == ["y"]
    d = len(header) - has_y
    expected = [f"x{k + 1}" for k in range(d)] + ["y"] * has_y
    if d < 1 or header != expected or not (has_y or y_optional):
        form = "x1,...,xd[,y]" if y_optional else "x1,...,xd,y"
        raise ConfigError(f"{path}: header must be {form}, got {','.join(header)}")
    if not rows:
        raise ConfigError(f"{path} contains a header but no data rows")
    for line, row in rows:
        if len(row) != len(header):
            raise ConfigError(
                f"{path}: line {line} has {len(row)} cells; "
                f"the header has {len(header)}"
            )
    try:
        # numpy parses each cell as float() does, with float()'s message
        values = np.array([row for _, row in rows], dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric cell ({exc})") from exc
    return values[:, :d], values[:, d] if has_y else None


def _line(values):
    """One CSV row of Python floats, each written as ``_format`` writes it;
    ``ndarray.tolist()`` gives such rows."""
    return ",".join(map(repr, values))


def _write_rows(path, header, lines):
    """Write a header row and the ``lines`` (newline-terminated) in one
    ``write_text``."""
    write_text(path, ",".join(header) + "\n" + "".join(lines))


def write_level_csv(path, inputs, outputs):
    """Write one level's ``x1..xd,y`` file: one row per input row and
    output, so ``inputs`` must be a 2-d matrix with one row per output."""
    inputs = real_array(inputs, "inputs")
    outputs = real_array(outputs, "outputs").ravel()
    if inputs.ndim != 2 or inputs.shape[0] != outputs.size:
        raise InvalidArgumentError(
            f"inputs of shape {inputs.shape} need one output each, got outputs "
            f"of shape {outputs.shape}"
        )
    header = [f"x{k + 1}" for k in range(inputs.shape[1])] + ["y"]
    rows = np.column_stack([inputs, outputs]).tolist()
    _write_rows(path, header, [_line(row) + "\n" for row in rows])


def write_predictions_csv(path, X0, prediction, intervals):
    """Prediction table: one row per (query, level) with mean, variance,
    and the 95% interval bounds."""
    X0 = np.asarray(X0, dtype=np.float64)
    header = [f"x{k + 1}" for k in range(X0.shape[1])] + [
        "level",
        "mean",
        "variance",
        "lo95",
        "hi95",
    ]
    intervals = np.asarray(intervals, dtype=np.float64)
    values = np.stack(
        [prediction.means, prediction.variances, intervals[..., 0], intervals[..., 1]],
        axis=-1,
    )
    # every float is formatted once, as _format writes it, and a query's
    # inputs are joined once for all of its levels
    d, s = X0.shape[1], values.shape[1]
    x_cells = list(map(repr, X0.ravel().tolist()))
    v_cells = list(map(repr, values.ravel().tolist()))
    lines = []
    k = 0
    for i in range(X0.shape[0]):
        cells = ",".join(x_cells[i * d:(i + 1) * d])
        for t in range(1, s + 1):
            lines.append(f"{cells},{t},{','.join(v_cells[k:k + 4])}\n")
            k += 4
    _write_rows(path, header, lines)


def write_draws_csv(path, draws):
    """Sample table: one row per draw, one ``level{t}`` column per level."""
    draws = np.asarray(draws, dtype=np.float64)
    header = [f"level{t + 1}" for t in range(draws.shape[1])]
    _write_rows(path, header, [_line(row) + "\n" for row in draws.tolist()])


def write_tailprobe_csv(path, phi_grid, loglik, logprior, logpost):
    """Diagnostic table along an isotropic range ray; empty grid gives a
    header-only file."""
    rows = np.column_stack(
        [np.asarray(a, dtype=np.float64) for a in (phi_grid, loglik, logprior, logpost)]
    ).tolist()
    header = ["phi", "log_likelihood", "log_prior", "log_posterior"]
    _write_rows(path, header, [_line(row) + "\n" for row in rows])


def write_replicates_csv(path, report):
    """Per-replicate benchmark table; ``csv.writer`` quotes the ``reason``
    cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replicate", "rmspe", "cvg95", "alci95", "failed", "reason"])
    for rep in report.replicates:
        writer.writerow(
            [
                str(rep["replicate"]),
                _format(rep["rmspe"]),
                _format(rep["cvg95"]),
                _format(rep["alci95"]),
                str(rep["failed"]),
                rep["reason"],
            ]
        )
    write_text(path, buf.getvalue())
