"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Deliberately corrupted outputs (a perturbed ``xi``, a sentinel optimum,
   a flipped prediction, a negative variance, an interval that misses its
   mean, a design point that is not reproduced, a changed file, a poor
   RMSPE) each trip the matching correctness check, and the true outputs
   pass every check.
2. A short run of ``query_cli``, untraced and traced, prints every metric
   of ``BENCHMARK.json`` with its unit (``run.py`` refuses a result line
   that does not).
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
   benchmark exits with a non-zero code and prints no result.

Exits 0 when every check behaves as expected.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workload  # noqa: E402
from mfcokrig.estimate import SENTINEL  # noqa: E402


def corrupted_outputs_trip_checks(workdir):
    session = workload.Session(workload.WORKLOADS["query_cli"], 7, workdir)
    session.setup()
    session.operation()
    result, data = session.fitted
    inputs = session.inputs
    library = session.model.predict(inputs["grid"])
    csv_path = os.path.join(session.cli_out, "predictions.csv")
    rows, cols = inputs["design_rows"], inputs["design_outputs"]
    truth = inputs["truth"]
    good_rmspe = checks.rmspe(library.means[: truth.size, -1], truth)

    def with_level1(**changes):
        lv1 = dataclasses.replace(result.levels[0], **changes)
        return dataclasses.replace(result, levels=(lv1,) + result.levels[1:])

    def with_csv_edit(edit):
        with open(csv_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        cells = lines[1].split(",")  # grid point 0, level 1
        edit(header, cells)
        lines[1] = ",".join(cells)
        bad_path = os.path.join(workdir, "corrupt.csv")
        with open(bad_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return checks.check_predictions(bad_path, library, rows, cols)

    def flip_mean(header, cells):
        k = header.index("mean")
        cells[k] = repr(-float(cells[k]))

    def interval_above_mean(header, cells):
        k = header.index("lo95")
        cells[k] = repr(float(cells[header.index("mean")]) + 1.0)

    negative = dataclasses.replace(library, variances=library.variances.copy())
    negative.variances[0, 0] = -1.0
    digests = {}
    checks.check_digests(digests, "f", "a" * 64)

    cases = [
        ("true fit", checks.check_fit(result, data), False),
        ("perturbed xi", checks.check_fit(with_level1(xi=result.levels[0].xi + 1e-3), data), True),
        ("sentinel optimum", checks.check_fit(with_level1(objective_value=SENTINEL), data), True),
        ("true predictions", checks.check_predictions(csv_path, library, rows, cols), False),
        ("flipped prediction", with_csv_edit(flip_mean), True),
        ("interval misses mean", with_csv_edit(interval_above_mean), True),
        ("negative variance", checks.check_predictions(csv_path, negative, rows, cols), True),
        ("design point not reproduced",
         checks.check_predictions(csv_path, library, rows, cols * (1 + 1e-5)), True),
        ("true rmspe", checks.check_rmspe(good_rmspe, truth), False),
        ("rmspe above truth sd", checks.check_rmspe(2.0 * np.std(truth), truth), True),
        ("nan rmspe", checks.check_rmspe(float("nan"), truth), True),
        ("same file", checks.check_digests(digests, "f", "a" * 64), False),
        ("changed file", checks.check_digests(digests, "f", "b" * 64), True),
    ]
    ok = True
    for name, failures, should_fail in cases:
        good = bool(failures) == should_fail
        ok &= good
        verdict = "tripped" if failures else "passed"
        print(f"{'ok  ' if good else 'FAIL'} {name}: {verdict}")
    return ok


def run_bench(cwd, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "query_cli",
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def every_metric_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, trace)
        lines = proc.stdout.splitlines()
        metrics = json.loads(lines[-1])["metrics"] if proc.returncode == 0 else {}
        for m in spec[section]:
            got = metrics.get(m["name"], {}).get("unit")
            if got != m["unit"]:
                ok = False
                print(f"FAIL trace {trace}: {m['name']} printed with unit {got!r}")
        print(f"{'ok  ' if ok else 'FAIL'} trace {trace}: {len(spec[section])} "
              f"{section} metrics printed with their units")
    return ok


def fails_without_program(scratch):
    bare = Path(scratch) / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(bare, 0)
    ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"{'ok  ' if ok else 'FAIL'} without src/: exit code {proc.returncode}")
    return ok


def main():
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selfcheck-", dir=work)
    try:
        ok = corrupted_outputs_trip_checks(scratch)
        ok &= every_metric_printed()
        ok &= fails_without_program(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selfcheck passed" if ok else "selfcheck FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
