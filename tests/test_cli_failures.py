"""The command line's failure map: a config value of the wrong JSON type
exits 2 with one ``error:`` line on stderr, never a traceback."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcokrig.cli import EXIT_CONFIG, main
from mfcokrig.modelio import write_level_csv

NUMBERS = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.none() | st.booleans() | NUMBERS | st.text()
JSON_TYPES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": NUMBERS,
    "string": st.text(),
    "array": st.lists(SCALARS, max_size=3),
    "object": st.dictionaries(st.text(), SCALARS, max_size=3),
}

# the JSON types each config key may hold; a scalar jr_C is a one-element
# array to numpy, as it is to PriorSpec
ACCEPTS = {
    "levels": {"array"},
    "grid": {"string"},
    "out": {"string"},
    "method": {"string"},
    "kernel": {"object"},
    "kernel.family": {"string"},
    "kernel.shape": {"number", "null"},
    "kernel.nugget": {"number"},
    "prior": {"object"},
    "prior.kind": {"string"},
    "prior.jr_a0": {"number", "null"},
    "prior.jr_b0": {"number", "null"},
    "prior.jr_C": {"array", "number", "null"},
    "optimizer": {"object"},
    "optimizer.seed": {"number"},
    "optimizer.n_starts": {"number"},
    "optimizer.tol": {"number"},
    "optimizer.max_evals": {"number", "null"},
    "benchmark": {"object"},
    "benchmark.n_low": {"number"},
    "benchmark.n_high": {"number"},
    "benchmark.n_test": {"number"},
    "benchmark.n_reps": {"number"},
}


def _sections(*names):
    """The keys ``names`` and their fields."""
    return [k for k in ACCEPTS if k.split(".")[0] in names]


# the config keys each command reads
READS = {
    "fit": ["levels", "out", "method", *_sections("kernel", "prior", "optimizer")],
    "tailprobe": ["levels", "out", *_sections("kernel", "prior")],
    "predict": ["grid", "out"],
    "sample": ["out"],
    "benchmark": ["out", "method", *_sections("kernel", "prior", "optimizer", "benchmark")],
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("failures")
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(8, 2))
    write_level_csv(d / "level1.csv", X, np.sin(3.0 * X[:, 0]))
    write_level_csv(d / "level2.csv", X[:4], np.cos(X[:4, 1]))
    (d / "grid.csv").write_text("x1,x2\n0.5,0.5\n")
    return d


def _argv(command, key, d):
    """The arguments that run ``command`` with ``--config`` supplying
    ``key``: every other input a command needs is a flag."""
    argv = [command, "--config", str(d / "config.json")]
    if command in ("fit", "tailprobe") and key != "levels":
        argv += ["--level", str(d / "level1.csv"), "--level", str(d / "level2.csv")]
    if command in ("predict", "sample"):
        argv += ["--model", str(d / "absent.json")]
    if command == "predict" and key != "grid":
        argv += ["--grid", str(d / "grid.csv")]
    if command == "sample":
        argv += ["--x0", "0.5,0.5"]
    if key != "out":
        argv += ["--out", str(d / "out")]
    return argv


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _config(key, value):
    section, _, field = key.partition(".")
    return {section: {field: value}} if field else {key: value}


def _assert_one_error_line(code, err):
    assert code == EXIT_CONFIG, err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, key", [(c, k) for c, keys in READS.items() for k in keys]
)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_wrong_typed_config_value_exits_two(files, command, key, data):
    """Every value drawn is of a JSON type the key does not take, so each
    run stops at validation: none fits, predicts or opens the model."""
    wrong = sorted(set(JSON_TYPES) - ACCEPTS[key])
    value = data.draw(st.sampled_from(wrong).flatmap(JSON_TYPES.get), label="value")
    (files / "config.json").write_text(json.dumps(_config(key, value)))
    _assert_one_error_line(*_run(_argv(command, key, files)))


@pytest.mark.parametrize("command", ["fit", "tailprobe", "benchmark"])
@pytest.mark.parametrize(
    "config, key",
    [
        ({"levels": 5}, "levels"),
        ({"levels": True}, "levels"),
        ({"levels": "low.csv"}, "levels"),
        ({"levels": ["low.csv", 5]}, "levels"),
        ({"levels": {"low.csv": 1}}, "levels"),
        ({"out": 5}, "out"),
        ({"out": ["x"]}, "out"),
        ({"out": None}, "out"),
    ],
)
def test_levels_and_out_must_hold_paths(tmp_path, command, config, key):
    """``levels`` is an array of paths and ``out`` one path: anything else
    exits 2 naming the key, whether or not a flag would replace it."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code, err = _run([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    _assert_one_error_line(code, err)
    assert f"config '{key}' must be" in err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(READS))
def test_an_empty_out_exits_two_and_writes_nothing(files, tmp_path, monkeypatch, command, source):
    """An empty ``out`` names no directory, not the working one: from the
    flag or from the config it exits 2 naming its source, and nothing is
    written where the command runs."""
    monkeypatch.chdir(tmp_path)
    (files / "config.json").write_text(json.dumps({} if source == "flag" else {"out": ""}))
    argv = _argv(command, "out", files) + (["--out", ""] if source == "flag" else [])
    code, err = _run(argv)
    _assert_one_error_line(code, err)
    assert ("--out" if source == "flag" else "config 'out'") in err
    assert list(tmp_path.iterdir()) == []
