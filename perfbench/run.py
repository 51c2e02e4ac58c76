"""Benchmark of the mfcokrig package: fit and query workloads on borehole
data, with an optional traced run that reports per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload borehole_ref --seed 1 --seconds 20 --trace 0

Each run starts one child process (``workload.py``) with its BLAS pinned
to one thread before numpy is imported, waits for it, and checks that the
result line it printed names exactly the metrics of ``BENCHMARK.json``
with their units.  The child's report and, for traced runs, its spans are
written to ``perfbench/_work/``.  The last line of output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when that line was printed.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# every run must end within 180 s; leave room to stop the child
DEADLINE_S = 170.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(1)


def expected_units(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, units):
    """Problems with the child's result line; empty when it is valid."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys must be {sorted(RESULT_KEYS)}"]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int)
            and attempted >= 1 and 0 <= failed <= attempted):
        problems.append(f"attempted={attempted!r} failed={failed!r}")
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(
            f"metrics missing {sorted(set(units) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(units))}"
        )
    for name, m in metrics.items():
        value = m.get("value")
        if m.get("unit") != units.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {units.get(name)!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be >= 1")
    src = ROOT / "src"
    if not (src / "mfcokrig" / "__init__.py").is_file():
        fail(f"no mfcokrig package under {src}; run from a full checkout")
    units = expected_units(args.trace)

    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--units", json.dumps(units),
    ]
    start = time.monotonic()
    child = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=DEADLINE_S - (time.monotonic() - start))
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        fail(f"workload did not finish within {DEADLINE_S:.0f} s")
    lines = out.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if child.returncode != 0:
        fail(f"workload exited with code {child.returncode}")
    problems = check_result(lines[-1] if lines else "", units)
    if problems:
        fail("invalid result line: " + "; ".join(problems))
    sys.stdout.write(lines[-1] + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
