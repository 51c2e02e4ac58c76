"""JSON model persistence and CSV interchange round-trips."""

import dataclasses
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcokrig.estimate import FitResult, LevelFit, OptimOptions, assemble, fit
from mfcokrig.exceptions import ConfigError, InvalidArgumentError
from mfcokrig.kernels import MATERN, POWER_EXPONENTIAL, KernelSpec
from mfcokrig.modelio import (
    MODEL_SCHEMA_VERSION,
    dump_json,
    load_level_csv,
    load_model,
    model_document,
    read_record,
    record,
    save_model,
    write_draws_csv,
    write_level_csv,
    write_predictions_csv,
    write_replicates_csv,
    write_tailprobe_csv,
)
from mfcokrig.predict import CokrigingModel, Prediction
from mfcokrig.priors import PRIOR_KINDS, PriorSpec


def _fitted(seed=0):
    rng = np.random.default_rng(seed)
    X1 = rng.uniform(size=(12, 2))
    X2 = X1[:6]
    y1 = np.sin(3.0 * X1[:, 0]) + X1[:, 1] + 0.1 * rng.standard_normal(12)
    y2 = 1.2 * y1[:6] + 0.3 * np.cos(2.0 * X2[:, 1])
    data = assemble([(X1, y1), (X2, y2)])
    spec = KernelSpec(family=MATERN, shape=2.5, dims=2)
    prior = PriorSpec(kind="reference")
    opts = OptimOptions(seed=1, n_starts=2, max_evals=150, tol=1e-6)
    return data, fit(data, spec, prior, opts)


class TestModelRoundTrip:
    def test_save_load_preserves_predictions(self, tmp_path):
        data, result = _fitted()
        path = tmp_path / "model.json"
        save_model(path, data, result)
        data2, result2 = load_model(path)
        rng = np.random.default_rng(5)
        X0 = rng.uniform(size=(7, 2))
        a = CokrigingModel(data, result).predict(X0)
        b = CokrigingModel(data2, result2).predict(X0)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)

    def test_saved_file_is_byte_stable(self, tmp_path):
        data, result = _fitted()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_model(p1, data, result)
        save_model(p2, data, result)
        assert p1.read_bytes() == p2.read_bytes()

    def test_document_fields(self):
        data, result = _fitted()
        doc = model_document(data, result)
        assert doc["schema_version"] == MODEL_SCHEMA_VERSION
        assert doc["basis"] == "constant"
        assert len(doc["levels"]) == 2
        assert doc["levels"][0]["fit"]["level"] == 1

    def test_version_mismatch_rejected(self, tmp_path):
        data, result = _fitted()
        path = tmp_path / "model.json"
        save_model(path, data, result)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="schema version"):
            load_model(path)

    def test_tampered_data_rejected(self, tmp_path):
        data, result = _fitted()
        path = tmp_path / "model.json"
        save_model(path, data, result)
        doc = json.loads(path.read_text())
        doc["levels"][0]["outputs"][0] += 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="fingerprint"):
            load_model(path)

    def test_loads_document_with_retired_initial_step(self, tmp_path):
        # version-1 documents written before OptimOptions lost its unused
        # initial_step, or its start box, carry them in their optimizer record
        data, result = _fitted()
        path = tmp_path / "model.json"
        save_model(path, data, result)
        current = path.read_bytes()
        doc = json.loads(current)
        retired = {"initial_step": 0.5, "start_low": -3.0, "start_high": 3.0}
        assert not retired.keys() & doc["optimizer"].keys()
        doc["optimizer"].update(retired)
        path.write_text(json.dumps(doc))
        data2, result2 = load_model(path)
        assert result2.opts == result.opts
        save_model(path, data2, result2)
        assert path.read_bytes() == current

    def test_missing_and_malformed_files(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_model(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_model(bad)
        with pytest.raises(ConfigError, match="is a directory"):
            load_model(tmp_path)

    def test_unreadable_files(self, tmp_path):
        """Bytes that are not UTF-8 and a path through a file are
        configuration errors naming the path."""
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00{")
        with pytest.raises(ConfigError, match="binary.json is not UTF-8 text"):
            load_model(binary)
        with pytest.raises(ConfigError, match="not a directory"):
            load_model(binary / "model.json")

    def test_save_into_a_missing_directory(self, tmp_path):
        data, result = _fitted()
        with pytest.raises(ConfigError, match="cannot write"):
            save_model(tmp_path / "absent" / "model.json", data, result)

    def test_non_constant_basis_not_serializable(self, tmp_path):
        rng = np.random.default_rng(2)
        X1 = rng.uniform(size=(10, 2))
        y1 = rng.standard_normal(10)
        data = assemble([(X1, y1)], basis=[lambda X: np.hstack([np.ones((X.shape[0], 1)), X])])
        _, result = _fitted()
        with pytest.raises(InvalidArgumentError, match="constant"):
            save_model(tmp_path / "m.json", data, result)


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
vectors = st.lists(finite, min_size=1, max_size=4)

kernel_specs = st.one_of(
    st.builds(
        KernelSpec,
        family=st.just(POWER_EXPONENTIAL),
        shape=st.floats(0.05, 1.99),
        dims=st.integers(1, 6),
        nugget=st.floats(0.0, 1e-4),
    ),
    st.builds(
        KernelSpec,
        family=st.just(MATERN),
        shape=st.sampled_from([0.5, 1.5, 2.5]),
        dims=st.integers(1, 6),
        nugget=st.floats(0.0, 1e-4),
    ),
)
prior_specs = st.builds(
    PriorSpec,
    kind=st.sampled_from(PRIOR_KINDS),
    jr_a0=st.none() | finite,
    jr_b0=positive,
    jr_C=st.none() | st.lists(positive, min_size=1, max_size=4),
)
optim_options = st.builds(
    OptimOptions,
    seed=st.integers(0, 2**62),
    n_starts=st.integers(1, 50),
    tol=st.floats(0.0, 1.0),
    max_evals=st.none() | st.integers(1, 10**6),
)
# phi and xi have one length, the level's input dimension
level_fits = st.integers(1, 4).flatmap(
    lambda d: st.builds(
        LevelFit,
        level=st.integers(1, 5),
        phi=st.lists(positive, min_size=d, max_size=d),
        xi=st.lists(finite, min_size=d, max_size=d),
        objective_value=finite,
        b_hat=vectors,
        sigma2_hat=positive,
        S2=positive,
        converged=st.booleans(),
        n_evals=st.integers(0, 10**6),
        best_start=st.integers(-1, 50),
        n_failed_starts=st.integers(0, 50),
        start_values=st.lists(finite, max_size=5).map(tuple),
    )
)


def _same_fields(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y)
        else:
            assert x == y and type(x) is type(y), f.name


class TestRecordCodec:
    @settings(max_examples=60, deadline=None)
    @given(obj=st.one_of(kernel_specs, prior_specs, optim_options, level_fits))
    def test_json_round_trip_returns_equal_fields(self, obj):
        text = json.dumps(record(obj), allow_nan=False)
        back = read_record(type(obj), json.loads(text), "where")
        _same_fields(obj, back)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        spec=kernel_specs,
        prior=prior_specs,
        opts=optim_options,
    )
    def test_save_load_save_is_byte_identical(self, tmp_path_factory, seed, spec, prior, opts):
        rng = np.random.default_rng(seed)
        d = spec.dims
        X1 = rng.uniform(size=(6, d))
        y1 = rng.standard_normal(6) * 10.0 ** rng.integers(-8, 8)
        X2 = X1[:3]
        y2 = 1.5 * y1[:3] + rng.standard_normal(3)
        data = assemble([(X1, y1), (X2, y2)])
        fits = tuple(
            LevelFit(
                level=lv.index,
                phi=rng.lognormal(size=d),
                xi=rng.standard_normal(d),
                objective_value=float(rng.standard_normal()),
                b_hat=rng.standard_normal(lv.q),
                sigma2_hat=float(rng.lognormal()),
                S2=float(rng.lognormal()),
                converged=bool(rng.integers(2)),
                n_evals=int(rng.integers(100)),
                best_start=0,
                n_failed_starts=0,
                start_values=tuple(rng.standard_normal(2)),
            )
            for lv in data.levels
        )
        result = FitResult(levels=fits, method="plugin", prior=prior, spec=spec, opts=opts)
        first = tmp_path_factory.mktemp("m") / "a.json"
        second = first.with_name("b.json")
        save_model(first, data, result)
        data2, result2 = load_model(first)
        save_model(second, data2, result2)
        assert first.read_bytes() == second.read_bytes()

    def test_config_sections_may_leave_out_defaults(self):
        opts = read_record(OptimOptions, {"n_starts": 3}, "optimizer", partial=True)
        assert opts == OptimOptions(n_starts=3)
        with pytest.raises(ConfigError, match=r"missing keys: \['kernel.family'\]"):
            read_record(KernelSpec, {"dims": 2}, "kernel", partial=True)


def _edit_missing_nugget(doc):
    del doc["kernel"]["nugget"]


def _edit_missing_phi(doc):
    del doc["levels"][0]["fit"]["phi"]


def _edit_missing_levels(doc):
    del doc["levels"]


def _edit_unknown_kernel_key(doc):
    doc["kernel"]["nuget"] = 1e-10


def _edit_unknown_optimizer_key(doc):
    doc["optimizer"]["n_start"] = 2


def _edit_wrong_value_type(doc):
    doc["kernel"]["shape"] = "smooth"


def _edit_ragged_inputs(doc):
    doc["levels"][1]["inputs"][0].append(0.5)


def _edit_level_number(doc):
    doc["levels"][0]["fit"]["level"] = 7


def _edit_converged(doc):
    doc["levels"][0]["fit"]["converged"] = "maybe"


def _edit_fractional_count(doc):
    doc["levels"][1]["fit"]["n_evals"] = 2.5


def _edit_boolean_count(doc):
    doc["levels"][1]["fit"]["best_start"] = True


def _edit_text_objective(doc):
    doc["levels"][0]["fit"]["objective_value"] = "high"


def _edit_boolean_version(doc):
    doc["schema_version"] = True


def _edit_float_version(doc):
    doc["schema_version"] = 1.0


def _edit_method(doc):
    doc["method"] = "nonsense"


def _edit_parameterization(doc):
    doc["parameterization"] = "whatever"


def _edit_basis(doc):
    doc["basis"] = "linear"


@pytest.fixture(scope="module")
def fitted():
    return _fitted()


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "edit, key",
        [
            (_edit_missing_nugget, "kernel.nugget"),
            (_edit_missing_phi, "levels[0].fit.phi"),
            (_edit_missing_levels, "levels"),
            (_edit_unknown_kernel_key, "kernel.nuget"),
            (_edit_unknown_optimizer_key, "optimizer.n_start"),
            (_edit_wrong_value_type, "kernel"),
            (_edit_ragged_inputs, "levels[1]"),
            (_edit_level_number, "levels[0].fit.level"),
            (_edit_converged, "levels[0].fit.converged"),
            (_edit_fractional_count, "levels[1].fit.n_evals"),
            (_edit_boolean_count, "levels[1].fit.best_start"),
            (_edit_text_objective, "levels[0].fit.objective_value"),
            (_edit_method, "method"),
            (_edit_parameterization, "parameterization"),
            (_edit_basis, "basis"),
            (_edit_boolean_version, "schema_version"),
            (_edit_float_version, "schema_version"),
        ],
    )
    def test_rejected_naming_the_key(self, tmp_path, fitted, edit, key):
        data, result = fitted
        doc = model_document(data, result)
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_model(path)
        assert f"'{key}'" in str(err.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("phi", [True, True]),
            ("phi", [[0.5, 0.5]]),
            ("xi", [[0.1, 0.2]]),
            ("xi", [0.1, 0.2, 0.3]),
            ("b_hat", [True]),
            ("b_hat", [[1.0]]),
            ("start_values", [True]),
            ("start_values", 3.0),
        ],
    )
    def test_level_fit_refuses_booleans_and_wrong_shapes(self, tmp_path, fitted, field, value):
        """A level fit's arrays hold real numbers in one dimension, ``phi``
        and ``xi`` of one length, in a document and in the constructor."""
        data, result = fitted
        doc = model_document(data, result)
        doc["levels"][0]["fit"][field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_model(path)
        assert f"'levels[0].fit.{field}'" in str(err.value)
        lf = result.levels[0]
        kwargs = {f.name: getattr(lf, f.name) for f in dataclasses.fields(lf)}
        with pytest.raises(InvalidArgumentError, match=f"^{field} "):
            LevelFit(**dict(kwargs, **{field: value}))

    def test_non_object_entries_rejected(self, tmp_path, fitted):
        data, result = fitted
        path = tmp_path / "model.json"
        for edit in (
            lambda doc: doc.update(prior=["reference"]),
            lambda doc: doc["levels"].__setitem__(1, 3),
            lambda doc: doc.update(levels={"fit": {}}),
        ):
            doc = model_document(data, result)
            edit(doc)
            path.write_text(json.dumps(doc))
            with pytest.raises(ConfigError):
                load_model(path)
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_model(path)


_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=4)


@st.composite
def _cell_spellings(draw):
    """A CSV cell as a person or a program might spell a number: padding,
    a sign, ``_`` between digit groups, a fraction, an exponent,
    ``nan``/``inf`` words, non-ASCII digits, or a near miss of these."""
    kind = draw(st.sampled_from(["number", "word", "non-ascii", "near-miss"]))
    if kind == "number":
        body = "_".join(draw(st.lists(_DIGITS, min_size=1, max_size=3)))
        if draw(st.booleans()):
            body += "." + draw(_DIGITS)
        if draw(st.booleans()):
            sign = draw(st.sampled_from(["", "+", "-"]))
            body += draw(st.sampled_from("eE")) + sign + draw(_DIGITS)
    elif kind == "word":
        body = draw(st.sampled_from(["nan", "NaN", "inf", "Inf", "infinity", "INFINITY"]))
    elif kind == "non-ascii":
        digits = "\u0660\u0661\u0667\u0669\uff10\uff13\uff19"
        body = draw(st.text(alphabet=digits, min_size=1, max_size=4))
    else:
        body = draw(st.text(alphabet="0123456789._eE+-xnaif ", max_size=6))
    pad = st.sampled_from(["", " ", "  ", "\t", "\u2003", "\u00a0"])
    return draw(pad) + draw(st.sampled_from(["", "+", "-"])) + body + draw(pad)


def _per_cell_parse(rows):
    """The rows' cells parsed one at a time by ``float``."""
    return np.array([[float(v) for v in row] for row in rows])


class TestLevelCsv:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(_cell_spellings(), min_size=3, max_size=3),
                         min_size=1, max_size=4))
    def test_cells_parse_as_float_does(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("cells") / "level.csv"
        text = "x1,x2,y\n" + "".join(",".join(row) + "\n" for row in rows)
        path.write_text(text, encoding="utf-8")
        try:
            want = _per_cell_parse(rows)
        except ValueError as exc:
            with pytest.raises(ConfigError) as err:
                load_level_csv(path)
            assert str(err.value) == f"{path}: non-numeric cell ({exc})"
            return
        X, y = load_level_csv(path)
        assert np.column_stack([X, y]).tobytes() == want.tobytes()

    def test_write_rejects_mismatched_and_non_numeric_arrays(self, tmp_path):
        path = tmp_path / "level1.csv"
        with pytest.raises(InvalidArgumentError, match="one output each"):
            write_level_csv(path, np.zeros((3, 2)), [1.0])
        with pytest.raises(InvalidArgumentError, match="one output each"):
            write_level_csv(path, np.zeros(3), np.zeros(3))
        with pytest.raises(InvalidArgumentError, match="inputs must hold real numbers"):
            write_level_csv(path, [["a", "b"]], [1.0])
        with pytest.raises(InvalidArgumentError, match="outputs must hold real numbers"):
            write_level_csv(path, [[0.0, 1.0]], ["y"])
        assert not path.exists()

    def test_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(9, 3))
        y = rng.standard_normal(9) * 1e-7
        path = tmp_path / "level1.csv"
        write_level_csv(path, X, y)
        X2, y2 = load_level_csv(path)
        np.testing.assert_array_equal(X, X2)
        np.testing.assert_array_equal(y, y2)

    def test_header_is_strict(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n0.1,0.2,3.0\n")
        with pytest.raises(ConfigError, match="header"):
            load_level_csv(path)
        path.write_text("x1,x2,z\n0.1,0.2,3.0\n")
        with pytest.raises(ConfigError, match="header"):
            load_level_csv(path)

    def test_empty_and_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_level_csv(path)
        path.write_text("x1,y\n")
        with pytest.raises(ConfigError, match="no data rows"):
            load_level_csv(path)
        path.write_text("x1,y\n0.5,oops\n")
        with pytest.raises(ConfigError, match="non-numeric"):
            load_level_csv(path)
        with pytest.raises(ConfigError, match="not found"):
            load_level_csv(tmp_path / "absent.csv")

    def test_unreadable_files(self, tmp_path):
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfex1,y\n")
        with pytest.raises(ConfigError, match="binary.csv is not UTF-8 text"):
            load_level_csv(binary)
        with pytest.raises(ConfigError, match="is a directory"):
            load_level_csv(tmp_path)
        with pytest.raises(ConfigError, match="not a directory"):
            load_level_csv(binary / "level.csv")

    def test_line_endings_are_the_csv_reader_s(self, tmp_path):
        """CRLF and CR line endings read as LF ones do."""
        rows = ["x1,y", "0.5,1.0", "0.25,2.0", ""]
        paths = []
        for name, sep in (("lf.csv", "\n"), ("crlf.csv", "\r\n"), ("cr.csv", "\r")):
            paths.append(tmp_path / name)
            paths[-1].write_bytes(sep.join(rows).encode())
        want = load_level_csv(paths[0])
        for path in paths[1:]:
            for a, b in zip(load_level_csv(path), want):
                np.testing.assert_array_equal(a, b)

    def test_rows_must_match_the_header_width(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n0.1,0.2,3.0\n0.4,0.5\n")
        with pytest.raises(ConfigError, match="line 3 has 2 cells; the header has 3"):
            load_level_csv(path)
        path.write_text("x1,x2,y\n0.1,0.2,3.0,4.0\n")
        with pytest.raises(ConfigError, match="line 2 has 4 cells"):
            load_level_csv(path)

    def test_y_column_optional_only_when_asked(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("x1,x2\n0.1,0.2\n0.3,0.4\n")
        with pytest.raises(ConfigError, match="header"):
            load_level_csv(path)
        X, y = load_level_csv(path, y_optional=True)
        np.testing.assert_array_equal(X, [[0.1, 0.2], [0.3, 0.4]])
        assert y is None
        path.write_text("x1,x2,y\n0.1,0.2,5.0\n")
        X, y = load_level_csv(path, y_optional=True)
        np.testing.assert_array_equal(y, [5.0])


def _predictions_csv_per_cell(X0, prediction, intervals):
    """``predictions.csv`` text written one cell at a time, each number
    formatted as ``repr(float(v))``."""
    d = X0.shape[1]
    lines = [",".join([f"x{k + 1}" for k in range(d)] + ["level", "mean", "variance", "lo95", "hi95"])]
    for i in range(X0.shape[0]):
        for t in range(prediction.means.shape[1]):
            cells = [repr(float(v)) for v in X0[i]] + [str(t + 1)]
            cells += [repr(float(prediction.means[i, t])), repr(float(prediction.variances[i, t]))]
            cells += [repr(float(v)) for v in intervals[i, t]]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _level_csv_per_cell(inputs, outputs):
    """A level file's text written one cell at a time, each number
    formatted as ``repr(float(v))``."""
    lines = [",".join([f"x{k + 1}" for k in range(inputs.shape[1])] + ["y"])]
    for row, y in zip(inputs, outputs):
        lines.append(",".join([repr(float(v)) for v in row] + [repr(float(y))]))
    return "\n".join(lines) + "\n"


def _special_values(rng, shape):
    """Normals over 40 decades, with -0.0, 1e-300, +-1e300, 0.1 and 1/3
    placed at random entries."""
    special = np.array([-0.0, 1e-300, 1e300, -1e300, 0.1, 1.0 / 3.0])
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    flat = v.reshape(-1)
    flat[rng.choice(flat.size, size=special.size, replace=False)] = special
    return v


class TestAuxiliaryWriters:
    def test_level_csv_matches_per_cell_formatting(self, tmp_path):
        rng = np.random.default_rng(171)
        inputs, outputs = _special_values(rng, (30, 3)), _special_values(rng, 30)
        path = tmp_path / "level.csv"
        write_level_csv(path, inputs, outputs)
        assert path.read_bytes() == _level_csv_per_cell(inputs, outputs).encode()
        ints = np.arange(6).reshape(3, 2)
        write_level_csv(path, ints, [7, 8, 9])
        assert path.read_bytes() == _level_csv_per_cell(ints, [7, 8, 9]).encode()

    def test_predictions_csv_matches_per_cell_formatting(self, tmp_path):
        rng = np.random.default_rng(170)
        m, d, s = 40, 3, 2

        def values(shape):
            return _special_values(rng, shape)

        X0 = values((m, d))
        pred = Prediction(
            means=values((m, s)),
            variances=np.abs(values((m, s))),
            dfs=np.array([10, 5]),
            at_design=np.zeros((m, s), dtype=bool),
        )
        intervals = values((m, s, 2))
        path = tmp_path / "predictions.csv"
        write_predictions_csv(path, X0, pred, intervals)
        assert path.read_bytes() == _predictions_csv_per_cell(X0, pred, intervals).encode()

    def test_draws_csv(self, tmp_path):
        draws = np.array([[1.5, 2.5], [3.25, -0.125]])
        path = tmp_path / "draws.csv"
        write_draws_csv(path, draws)
        lines = path.read_text().splitlines()
        assert lines[0] == "level1,level2"
        assert lines[1] == "1.5,2.5"

    def test_tailprobe_csv(self, tmp_path):
        path = tmp_path / "probe.csv"
        write_tailprobe_csv(path, [0.5], [-1.25], [0.0], [-1.25])
        lines = path.read_text().splitlines()
        assert lines[0] == "phi,log_likelihood,log_prior,log_posterior"
        assert lines[1] == "0.5,-1.25,0.0,-1.25"

    def test_dump_json_rejects_nan(self, tmp_path):
        with pytest.raises(ValueError):
            dump_json({"x": float("nan")}, tmp_path / "x.json")


def _replicates_report():
    """A benchmark report holding one replicate whose reason needs quoting."""
    rows = (
        {"replicate": 0, "rmspe": 0.5, "cvg95": 1.0, "alci95": 2.25,
         "failed": False, "reason": ""},
        {"replicate": 1, "rmspe": float("nan"), "cvg95": float("nan"),
         "alci95": float("nan"), "failed": True, "reason": 'level 2: "singular", R'},
    )
    return SimpleNamespace(replicates=rows)


def _each_writer():
    """Every file writer of the module, as ``(name, write(path))``."""
    data, result = _fitted()
    pred = Prediction(means=np.ones((1, 2)), variances=np.ones((1, 2)),
                      dfs=np.array([10, 5]), at_design=np.zeros((1, 2), dtype=bool))
    return {
        "dump_json": lambda path: dump_json({"a": 1.5}, path),
        "save_model": lambda path: save_model(path, data, result),
        "write_level_csv": lambda path: write_level_csv(path, [[0.5]], [1.0]),
        "write_predictions_csv": lambda path: write_predictions_csv(
            path, [[0.5, 0.25]], pred, np.zeros((1, 2, 2))),
        "write_draws_csv": lambda path: write_draws_csv(path, [[1.0, 2.0]]),
        "write_tailprobe_csv": lambda path: write_tailprobe_csv(
            path, [0.5], [-1.0], [0.0], [-1.0]),
        "write_replicates_csv": lambda path: write_replicates_csv(path, _replicates_report()),
    }


_WRITERS = sorted(_each_writer())


class TestWriterErrors:
    @pytest.mark.parametrize("name", _WRITERS)
    def test_unwritable_paths_are_config_errors(self, tmp_path, name):
        """A missing directory, a directory and a path through a file are
        configuration errors naming the path, not bare ``OSError``s."""
        write = _each_writer()[name]
        afile = tmp_path / "afile"
        afile.write_text("")
        for path, reason in ((tmp_path / "absent" / "out", "No such file or directory"),
                             (tmp_path, "Is a directory"),
                             (afile / "out", "Not a directory")):
            with pytest.raises(ConfigError, match="cannot write") as err:
                write(path)
            assert str(path) in str(err.value) and reason in str(err.value)

    def test_save_model_needs_data_and_a_fit(self, tmp_path):
        data, result = _fitted()
        for args, name in (((None, result), "data"), ((data, None), "fit_result")):
            with pytest.raises(InvalidArgumentError, match=f"{name} must be"):
                save_model(tmp_path / "model.json", *args)

    def test_save_model_needs_one_fit_per_level(self, tmp_path):
        data, result = _fitted()
        short = dataclasses.replace(result, levels=result.levels[:1])
        path = tmp_path / "model.json"
        with pytest.raises(InvalidArgumentError, match="fit has 1 levels but data has 2"):
            save_model(path, data, short)
        assert not path.exists()

    @pytest.mark.parametrize("name", sorted(_WRITERS + ["load_level_csv", "load_model"]))
    def test_paths_are_str_or_pathlike(self, name):
        """Anything else, an int above all, which ``open`` takes for a file
        descriptor and closes after, is a ``ConfigError`` naming the value;
        a descriptor passed as a path stays open and nothing is written."""
        call = {"load_level_csv": load_level_csv, "load_model": load_model,
                **_each_writer()}[name]
        for bad in ("fd", -1, True, None, 3.5):
            r, w = os.pipe()
            try:
                path = w if bad == "fd" else bad
                with pytest.raises(ConfigError, match=f"os.PathLike, got {path!r}"):
                    call(path)
                os.fstat(w)
            finally:
                os.close(w)
                assert os.read(r, 1) == b""
                os.close(r)

    def test_replicates_csv_quotes_the_reason(self, tmp_path):
        path = tmp_path / "replicates.csv"
        write_replicates_csv(path, _replicates_report())
        assert path.read_bytes() == (
            b"replicate,rmspe,cvg95,alci95,failed,reason\n"
            b"0,0.5,1.0,2.25,False,\n"
            b'1,nan,nan,nan,True,"level 2: ""singular"", R"\n'
        )


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a file is not part of its
    text: every reader gives what it gives without the mark."""

    def test_level_csv(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_level_csv(plain, [[0.5, 0.25], [0.125, 1.0]], [1.5, -2.0])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for a, b in zip(load_level_csv(marked), load_level_csv(plain)):
            np.testing.assert_array_equal(a, b)

    def test_model_file(self, tmp_path):
        data, result = _fitted()
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        save_model(plain, data, result)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        data2, result2 = load_model(marked)
        assert model_document(data2, result2) == model_document(*load_model(plain))
