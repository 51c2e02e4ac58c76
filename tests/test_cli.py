"""End-to-end command-line flows: artifacts, exit codes, determinism."""

import json

import numpy as np
import pytest

from mfcokrig import cli
from mfcokrig import predict as predict_module
from mfcokrig.cli import EXIT_CONFIG, EXIT_ESTIMATION, EXIT_OK, main
from mfcokrig.exceptions import BenchmarkError
from mfcokrig.modelio import _format, load_model, write_level_csv
from mfcokrig.predict import CokrigingModel


def _write_levels(tmp_path, seed=0, degenerate=False):
    rng = np.random.default_rng(seed)
    X1 = rng.uniform(size=(12, 2))
    X2 = X1[:6]
    if degenerate:
        y1 = np.zeros(12)
        y2 = np.zeros(6)
    else:
        y1 = np.sin(3.0 * X1[:, 0]) + X1[:, 1] + 0.15 * rng.standard_normal(12)
        y2 = 1.3 * y1[:6] + 0.4 * np.cos(2.0 * X2[:, 1])
    p1 = tmp_path / "level1.csv"
    p2 = tmp_path / "level2.csv"
    write_level_csv(p1, X1, y1)
    write_level_csv(p2, X2, y2)
    return str(p1), str(p2), (X1, y1), (X2, y2)


def _write_config(tmp_path, extra=None):
    cfg = {
        "kernel": {"family": "matern", "shape": 2.5},
        "prior": {"kind": "reference"},
        "optimizer": {"n_starts": 2, "max_evals": 150, "tol": 1e-6},
    }
    cfg.update(extra or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _fit(tmp_path, out_name="run", seed=0):
    p1, p2, pair1, pair2 = _write_levels(tmp_path, seed=seed)
    cfg = _write_config(tmp_path)
    out = tmp_path / out_name
    code = main(
        [
            "fit",
            "--config",
            cfg,
            "--level",
            p1,
            "--level",
            p2,
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    return out, pair1, pair2


class TestFitCommand:
    def test_writes_model_summary_and_config_echo(self, tmp_path, capsys):
        out, _, _ = _fit(tmp_path)
        assert (out / "model.json").is_file()
        assert (out / "fit_summary.txt").is_file()
        assert (out / "fit_config.json").is_file()
        stdout = capsys.readouterr().out
        assert "fitted 2-level model" in stdout
        assert "gamma=" in stdout
        data, result = load_model(out / "model.json")
        assert data.s == 2
        assert result.levels[1].gamma is not None

    def test_byte_deterministic_across_runs(self, tmp_path):
        out_a, _, _ = _fit(tmp_path, "a")
        out_b, _, _ = _fit(tmp_path, "b")
        assert (out_a / "model.json").read_bytes() == (out_b / "model.json").read_bytes()
        assert (
            out_a / "fit_config.json"
        ).read_bytes() == (out_b / "fit_config.json").read_bytes()

    def test_flags_override_config_file(self, tmp_path):
        p1, p2, _, _ = _write_levels(tmp_path)
        cfg = _write_config(tmp_path)  # matern 2.5 in the file
        out = tmp_path / "o"
        code = main(
            [
                "fit",
                "--config",
                cfg,
                "--level",
                p1,
                "--level",
                p2,
                "--shape",
                "1.5",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        echoed = json.loads((out / "fit_config.json").read_text())
        assert echoed["kernel"]["family"] == "matern"
        assert echoed["kernel"]["shape"] == 1.5


class TestPredictCommand:
    def test_predictions_csv_schema_and_determinism(self, tmp_path, capsys):
        out, _, _ = _fit(tmp_path)
        rng = np.random.default_rng(4)
        grid = tmp_path / "grid.csv"
        pts = rng.uniform(size=(5, 2))
        grid.write_text(
            "x1,x2\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pts) + "\n"
        )
        for name in ("p1", "p2"):
            code = main(
                [
                    "predict",
                    "--model",
                    str(out / "model.json"),
                    "--grid",
                    str(grid),
                    "--out",
                    str(tmp_path / name),
                ]
            )
            assert code == EXIT_OK
        # the intervals take no draws, so the shared --seed flag is accepted
        # and changes nothing
        code = main(["predict", "--model", str(out / "model.json"), "--grid", str(grid),
                     "--seed", "9", "--out", str(tmp_path / "p3")])
        assert code == EXIT_OK
        a = (tmp_path / "p1" / "predictions.csv").read_bytes()
        b = (tmp_path / "p2" / "predictions.csv").read_bytes()
        assert a == b == (tmp_path / "p3" / "predictions.csv").read_bytes()
        lines = a.decode().splitlines()
        assert lines[0] == "x1,x2,level,mean,variance,lo95,hi95"
        assert len(lines) == 1 + 5 * 2  # one row per (point, level)
        echoed = json.loads((tmp_path / "p1" / "predict_config.json").read_text())
        assert echoed == {"model": str(out / "model.json"), "grid": str(grid)}

    def test_reproduces_training_data_at_design_points(self, tmp_path):
        out, _, (X2, y2) = _fit(tmp_path)
        grid = tmp_path / "grid.csv"
        grid.write_text(
            "x1,x2\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in X2) + "\n"
        )
        code = main(
            [
                "predict",
                "--model",
                str(out / "model.json"),
                "--grid",
                str(grid),
                "--out",
                str(tmp_path / "pd"),
            ]
        )
        assert code == EXIT_OK
        rows = (tmp_path / "pd" / "predictions.csv").read_text().splitlines()[1:]
        top = [r.split(",") for r in rows if r.split(",")[2] == "2"]
        means = np.array([float(r[3]) for r in top])
        variances = np.array([float(r[4]) for r in top])
        np.testing.assert_allclose(means, y2, atol=1e-6)
        assert np.all(variances < 1e-8)

    def test_mean_and_variance_columns_are_library_predict(self, tmp_path):
        out, (X1, _), (X2, _) = _fit(tmp_path)
        pts = np.vstack([np.random.default_rng(5).uniform(size=(6, 2)), X2[:3], X1[-2:]])
        grid = tmp_path / "grid.csv"
        grid.write_text(
            "x1,x2\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pts) + "\n"
        )
        code = main(
            ["predict", "--model", str(out / "model.json"), "--grid", str(grid),
             "--out", str(tmp_path / "pm")]
        )
        assert code == EXIT_OK
        data, result = load_model(out / "model.json")
        model = CokrigingModel(data, result)
        pred = model.predict(pts)
        intervals = model.credible_intervals(pts)
        rows = (tmp_path / "pm" / "predictions.csv").read_text().splitlines()[1:]
        cells = [r.split(",") for r in rows]
        for k, row in enumerate(cells):
            i, t = divmod(k, 2)
            assert row[2] == str(t + 1)
            assert row[3] == _format(pred.means[i, t])
            assert row[4] == _format(pred.variances[i, t])
            assert row[5:] == [_format(v) for v in intervals[i, t]]

    def test_one_cross_correlation_per_level(self, tmp_path, monkeypatch):
        """The moments and the intervals share one pass over the grid."""
        out, _, _ = _fit(tmp_path)
        grid = tmp_path / "grid.csv"
        grid.write_text("x1,x2\n0.1,0.2\n0.7,0.4\n")
        calls = []
        cross_corr = predict_module.cross_corr
        monkeypatch.setattr(
            predict_module, "cross_corr", lambda *a: calls.append(1) or cross_corr(*a)
        )
        code = main(
            ["predict", "--model", str(out / "model.json"), "--grid", str(grid),
             "--out", str(tmp_path / "pm")]
        )
        assert code == EXIT_OK
        assert len(calls) == 2

    def test_intervals_take_no_draws_flag(self, tmp_path, capsys):
        out, _, _ = _fit(tmp_path)
        grid = tmp_path / "grid.csv"
        grid.write_text("x1,x2\n0.1,0.2\n")
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--model", str(out / "model.json"), "--grid", str(grid),
                  "--draws", "100", "--out", str(tmp_path / "pq")])
        assert exc.value.code == 2
        assert "--draws" in capsys.readouterr().err

    def test_grid_dimension_mismatch(self, tmp_path, capsys):
        out, _, _ = _fit(tmp_path)
        grid = tmp_path / "grid.csv"
        grid.write_text("x1,x2,x3\n0.1,0.2,0.3\n")
        code = main(
            ["predict", "--model", str(out / "model.json"), "--grid", str(grid)]
        )
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "text, message",
        [
            # a y column in the header but not in the rows
            ("x1,x2,y\n0.1,0.2\n", "line 2 has 2 cells; the header has 3"),
            # a short row among full ones
            ("x1,x2\n0.1,0.2\n0.3\n", "line 3 has 1 cells; the header has 2"),
            # a row wider than the header
            ("x1,x2\n0.1,0.2,0.3\n", "line 2 has 3 cells; the header has 2"),
        ],
    )
    def test_grid_rows_must_match_the_header(self, tmp_path, capsys, text, message):
        out, _, _ = _fit(tmp_path)
        grid = tmp_path / "grid.csv"
        grid.write_text(text)
        code = main(
            ["predict", "--model", str(out / "model.json"), "--grid", str(grid),
             "--out", str(tmp_path / "pg")]
        )
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_grid_with_y_column_predicts_like_grid_without(self, tmp_path):
        out, _, _ = _fit(tmp_path)
        pts = np.random.default_rng(6).uniform(size=(4, 2))
        write_level_csv(tmp_path / "with.csv", pts, np.full(4, 7.0))
        (tmp_path / "without.csv").write_text(
            "x1,x2\n" + "".join(f"{_format(a)},{_format(b)}\n" for a, b in pts)
        )
        for name in ("with", "without"):
            code = main(
                ["predict", "--model", str(out / "model.json"),
                 "--grid", str(tmp_path / f"{name}.csv"),
                 "--out", str(tmp_path / name)]
            )
            assert code == EXIT_OK
        assert (tmp_path / "with" / "predictions.csv").read_bytes() == (
            tmp_path / "without" / "predictions.csv"
        ).read_bytes()

    def test_malformed_model_exits_two_naming_the_key(self, tmp_path, capsys):
        out, _, _ = _fit(tmp_path)
        doc = json.loads((out / "model.json").read_text())
        del doc["kernel"]["nugget"]
        (out / "model.json").write_text(json.dumps(doc))
        grid = tmp_path / "grid.csv"
        grid.write_text("x1,x2\n0.1,0.2\n")
        code = main(["predict", "--model", str(out / "model.json"), "--grid", str(grid)])
        assert code == EXIT_CONFIG
        assert "kernel.nugget" in capsys.readouterr().err


class TestSampleCommand:
    def test_draws_csv_and_seeding(self, tmp_path):
        out, _, _ = _fit(tmp_path)
        args = [
            "sample",
            "--model",
            str(out / "model.json"),
            "--x0",
            "0.4,0.6",
            "--draws",
            "250",
        ]
        for name, seed in (("s1", "7"), ("s2", "7"), ("s3", "8")):
            code = main(args + ["--seed", seed, "--out", str(tmp_path / name)])
            assert code == EXIT_OK
        d1 = (tmp_path / "s1" / "draws.csv").read_bytes()
        d2 = (tmp_path / "s2" / "draws.csv").read_bytes()
        d3 = (tmp_path / "s3" / "draws.csv").read_bytes()
        assert d1 == d2
        assert d1 != d3
        lines = d1.decode().splitlines()
        assert lines[0] == "level1,level2"
        assert len(lines) == 251

    def test_x0_validation(self, tmp_path, capsys):
        out, _, _ = _fit(tmp_path)
        code = main(
            ["sample", "--model", str(out / "model.json"), "--x0", "0.4"]
        )
        assert code == EXIT_CONFIG
        code = main(
            ["sample", "--model", str(out / "model.json"), "--x0", "a,b"]
        )
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        out, _, _ = _fit(tmp_path)
        code = main(
            ["sample", "--model", str(out / "model.json"), "--x0", "0.4,0.6", "--seed", "-1"]
        )
        assert code == EXIT_CONFIG
        assert "seed must be an integer >= 0" in capsys.readouterr().err


class TestTailprobeCommand:
    def test_probe_schema_and_explicit_grid(self, tmp_path):
        p1, p2, _, _ = _write_levels(tmp_path)
        out = tmp_path / "probe"
        code = main(
            [
                "tailprobe",
                "--level",
                p1,
                "--level",
                p2,
                "--level-index",
                "2",
                "--phi-grid",
                "0.5,1.0,2.0",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (out / "tailprobe_level2.csv").read_text().splitlines()
        assert lines[0] == "phi,log_likelihood,log_prior,log_posterior"
        assert len(lines) == 4
        echoed = json.loads((out / "tailprobe_config.json").read_text())
        assert echoed["phi_grid"] == [0.5, 1.0, 2.0]

    def test_empty_grid_writes_header_only(self, tmp_path):
        p1, p2, _, _ = _write_levels(tmp_path)
        out = tmp_path / "probe0"
        code = main(
            [
                "tailprobe",
                "--level",
                p1,
                "--level",
                p2,
                "--n-grid",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (out / "tailprobe_level1.csv").read_text().splitlines()
        assert lines == ["phi,log_likelihood,log_prior,log_posterior"]

    def test_ranges_whose_weights_overflow_give_nan_rows(self, tmp_path):
        p1, p2, _, _ = _write_levels(tmp_path)
        out = tmp_path / "probe"
        code = main(
            [
                "tailprobe",
                "--level",
                p1,
                "--level",
                p2,
                "--phi-grid",
                "1e-200,1",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (out / "tailprobe_level1.csv").read_text().splitlines()
        assert lines[1] == "1e-200,nan,nan,nan"
        row = [float(v) for v in lines[2].split(",")]
        assert row[0] == 1.0 and np.isfinite(row[1:]).all()

    def test_negative_grid_size_exits_two(self, tmp_path, capsys):
        p1, p2, _, _ = _write_levels(tmp_path)
        code = main(
            [
                "tailprobe",
                "--level",
                p1,
                "--level",
                p2,
                "--n-grid",
                "-1",
                "--out",
                str(tmp_path / "probe"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "--n-grid" in capsys.readouterr().err

    def test_level_index_validation(self, tmp_path, capsys):
        p1, p2, _, _ = _write_levels(tmp_path)
        code = main(["tailprobe", "--level", p1, "--level", p2, "--level-index", "5"])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize(
        "prior, key",
        [
            ({"kind": "jointly_robust", "jr_C": [1.0, 1.0, 1.0]}, "jr_C"),
            ({"kind": "jointly_robust", "jr_a0": -10.0}, "jr_a0"),
        ],
    )
    def test_bad_prior_config_exits_two(self, tmp_path, capsys, prior, key):
        """A prior the fit would reject is a configuration error here too,
        not a column of NaN."""
        p1, p2, _, _ = _write_levels(tmp_path)
        cfg = _write_config(tmp_path, {"prior": prior})
        out = tmp_path / "probe"
        for command in ("fit", "tailprobe"):
            code = main(
                [command, "--config", cfg, "--level", p1, "--level", p2, "--out", str(out)]
            )
            assert code == EXIT_CONFIG, command
            assert key in capsys.readouterr().err
        assert not (out / "tailprobe_level1.csv").exists()


class TestExitCodes:
    def test_missing_level_file(self, tmp_path, capsys):
        code = main(["fit", "--level", str(tmp_path / "absent.csv")])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_files_that_are_not_utf8_exit_two(self, tmp_path, capsys):
        """A model, level or config file holding bytes that are not UTF-8
        is a configuration error naming the file, not a traceback."""
        p1, p2, _, _ = _write_levels(tmp_path)
        grid = tmp_path / "grid.csv"
        grid.write_text("x1,x2\n0.5,0.5\n")
        binary = tmp_path / "binary.bin"
        binary.write_bytes(b"\xff\xfe\x00\x01")
        for argv in (
            ["predict", "--model", str(binary), "--grid", str(grid)],
            ["fit", "--level", str(binary), "--level", p2],
            ["fit", "--config", str(binary), "--level", p1, "--level", p2],
        ):
            assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG, argv
            assert f"{binary} is not UTF-8 text" in capsys.readouterr().err

    def test_a_config_file_with_a_byte_order_mark(self, tmp_path):
        """A config file that starts with a UTF-8 byte-order mark reads as
        the same file without it."""
        p1, p2, _, _ = _write_levels(tmp_path)
        cfg = _write_config(tmp_path)
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "config.json").read_bytes())
        outs = []
        for path, name in ((cfg, "plain"), (str(marked), "marked")):
            outs.append(tmp_path / name)
            argv = ["fit", "--config", path, "--level", p1, "--level", p2, "--out", str(outs[-1])]
            assert main(argv) == EXIT_OK
        for name in ("model.json", "fit_summary.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_an_unwritable_fit_summary_exits_two(self, tmp_path, capsys):
        """A directory where ``fit_summary.txt`` goes is a configuration
        error naming the path, not a traceback."""
        p1, p2, _, _ = _write_levels(tmp_path)
        out = tmp_path / "out"
        (out / "fit_summary.txt").mkdir(parents=True)
        argv = ["fit", "--config", _write_config(tmp_path), "--level", p1, "--level", p2,
                "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert f"cannot write {out / 'fit_summary.txt'}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [(c, f, v) for c in ("predict", "sample") for f, v in (
            ("--prior", "flat"), ("--kernel", "matern"), ("--shape", "1.5"),
            ("--nugget", "1e-8"), ("--jr-a0", "0.2"), ("--jr-b0", "1.0"),
        )] + [("tailprobe", "--seed", "1")],
    )
    def test_flags_the_command_does_not_read_are_refused(self, capsys, command, flag, value):
        """``predict`` and ``sample`` read the kernel and the prior from the
        model file, and ``tailprobe`` draws nothing: each refuses the flags
        it would ignore, with argparse's exit 2 naming the flag."""
        required = {"predict": ["--model", "m.json"],
                    "sample": ["--model", "m.json", "--x0", "0.5,0.5"]}
        with pytest.raises(SystemExit) as exc:
            main([command, *required.get(command, []), flag, value])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err

    def test_invalid_config_json(self, tmp_path, capsys):
        p1, p2, _, _ = _write_levels(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        code = main(["fit", "--config", str(cfg), "--level", p1, "--level", p2])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_unknown_config_key(self, tmp_path, capsys):
        p1, p2, _, _ = _write_levels(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"kernell": {}}')
        code = main(["fit", "--config", str(cfg), "--level", p1, "--level", p2])
        assert code == EXIT_CONFIG
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key",
        [
            ("kernel", "famly"),
            ("prior", "knd"),
            ("optimizer", "n_start"),
            ("optimizer", "initial_step"),
            ("optimizer", "start_low"),
            ("benchmark", "n_lo"),
        ],
    )
    def test_unknown_nested_config_key(self, tmp_path, capsys, section, key):
        p1, p2, _, _ = _write_levels(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: 1}}))
        code = main(["fit", "--config", str(cfg), "--level", p1, "--level", p2])
        assert code == EXIT_CONFIG
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_config_section_must_be_an_object(self, tmp_path, capsys):
        p1, p2, _, _ = _write_levels(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"optimizer": [2]}')
        code = main(["fit", "--config", str(cfg), "--level", p1, "--level", p2])
        assert code == EXIT_CONFIG
        assert "'optimizer' must be a JSON object" in capsys.readouterr().err

    def test_degenerate_data_exits_three(self, tmp_path, capsys):
        p1, p2, _, _ = _write_levels(tmp_path, degenerate=True)
        cfg = _write_config(tmp_path)
        code = main(
            [
                "fit",
                "--config",
                cfg,
                "--level",
                p1,
                "--level",
                p2,
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_ESTIMATION
        assert "estimation error:" in capsys.readouterr().err

    def test_constant_outputs_exit_three(self, tmp_path, capsys):
        """Constant outputs are interpolated exactly at every range: S2 is
        rounding noise against y^T R^-1 y, so no start yields a fit."""
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(20, 2))
        path = tmp_path / "level1.csv"
        write_level_csv(path, X, np.full(20, 3.7))
        code = main(["fit", "--level", str(path), "--starts", "2", "--out", str(tmp_path / "o")])
        assert code == EXIT_ESTIMATION
        assert "degenerate data" in capsys.readouterr().err

    def test_missing_subcommand_and_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        capsys.readouterr()


class TestBenchmarkCommand:
    def test_small_run_writes_report(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"optimizer": {"n_starts": 2, "max_evals": 250, "tol": 1e-6}})
        )
        out = tmp_path / "bench"
        code = main(
            [
                "benchmark",
                "--config",
                str(cfg),
                "--n-low",
                "14",
                "--n-high",
                "7",
                "--n-test",
                "5",
                "--reps",
                "2",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        report = json.loads((out / "benchmark_report.json").read_text())
        assert set(report) >= {"rmspe", "cvg95", "alci95", "replicates", "config"}
        assert len(report["replicates"]) == 2
        lines = (out / "benchmark_replicates.csv").read_text().splitlines()
        assert lines[0] == "replicate,rmspe,cvg95,alci95,failed,reason"
        assert "median RMSPE" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "sizes, key",
        [({"n_low": "20"}, "n_low"), ({"n_reps": 1.5}, "n_reps"),
         ({"n_high": True}, "n_high"), ({"n_test": 0}, "n_test")],
    )
    def test_bad_size_in_config_exits_two_naming_the_key(self, tmp_path, capsys, sizes, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"benchmark": sizes}))
        code = main(["benchmark", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, flags, sizes",
        [
            ({}, [], {}),
            ({"n_high": 12, "n_reps": 3}, [], {"n_high": 12, "n_reps": 3}),
            ({"n_high": 12}, ["--reps", "2", "--n-low", "40"],
             {"n_high": 12, "n_reps": 2, "n_low": 40}),
        ],
    )
    def test_passes_only_the_sizes_given(self, tmp_path, monkeypatch, capsys,
                                         config, flags, sizes):
        """Sizes come from the config section and the flags; the rest are
        left to run_borehole_benchmark's own defaults."""
        seen = {}

        def fake_benchmark(**kwargs):
            seen.update(kwargs)
            raise BenchmarkError("stopped after reading the arguments")

        monkeypatch.setattr(cli, "run_borehole_benchmark", fake_benchmark)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"benchmark": config}))
        code = main(["benchmark", "--config", str(cfg), *flags, "--out", str(tmp_path)])
        assert code == EXIT_ESTIMATION
        capsys.readouterr()
        got = {k: v for k, v in seen.items() if k in ("n_low", "n_high", "n_test", "n_reps")}
        assert got == sizes
