"""One benchmark run of one workload; started by ``run.py`` in a child
process whose BLAS is already pinned to one thread.

Every workload is the same single-process, closed-loop session on borehole
data (the next operation starts when the previous one has returned):

    fit -> build model -> save model.json -> CLI ``predict`` over a grid
        -> library ``predict`` on a batch

The workloads differ in where the time goes.  The two fit workloads run
the whole session as their timed operation; ``query_cli`` fits in set-up
and times only the read side.  Outputs are checked after every operation.
Timings are medians of samples scaled by a calibration kernel (``Clock``).

With ``--trace 1`` the run alternates untraced operations with operations
whose layer entry points are wrapped (see ``tracing.py``); the per-layer
metrics come from the traced ones, and the ratio of adjacent timings is
the tracing overhead.
"""

import argparse
import contextlib
import ctypes
import functools
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if any(os.environ.get(v) != "1" for v in BLAS_THREAD_VARS):
    sys.exit("BLAS threads are not pinned to 1; start the benchmark with run.py")

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from mfcokrig import bench, cli, estimate, modelio  # noqa: E402
from mfcokrig.kernels import KernelSpec  # noqa: E402
from mfcokrig.predict import CokrigingModel  # noqa: E402
from mfcokrig.priors import PriorSpec  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
D = bench.BOREHOLE_DIM
# predict_pts_per_s: library predict on BATCH rows in calls of BATCH_ROWS,
# small enough that the cross-correlation blocks stay in cache
BATCH = 4000
BATCH_ROWS = 500


@dataclass(frozen=True)
class Workload:
    """Sizes and settings of one workload; see BENCHMARK.json for why."""

    name: str
    n_low: int
    n_high: int
    n_test: int  # held-out LHS points, scored by rmspe
    n_grid: int  # extra held-out query points on the CLI grid
    family: str
    shape: float
    method: str
    n_starts: int
    # every start stops at exactly this many evaluations (converged starts
    # take 600-850 at n=80), so each fit does the same work on every seed
    max_evals: int
    fit_in_op: bool  # False: the fit is set-up and only queries are timed
    # the CLI grid also holds the high-fidelity design, whose outputs the
    # predicted means must reproduce; the fit workloads query only the
    # held-out points, and every workload reports design_rel_err
    design_in_grid: bool
    n_setups: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("borehole_ref", 80, 30, 20, 200, "power_exponential", 1.9,
                 estimate.POSTERIOR, 4, 300, True, False, 20),
        Workload("plugin_n200", 200, 60, 20, 200, "matern", 2.5,
                 estimate.PLUGIN, 2, 600, True, False, 20),
        Workload("query_cli", 80, 30, 20, 1000, "power_exponential", 1.9,
                 estimate.POSTERIOR, 1, 300, False, True, 7),
    )
}


def make_inputs(wl, seed):
    """Training data, CLI grid and predict batch from the seed alone.

    The split follows ``bench._replicate_metrics``: seed ``s`` gives the
    data of replicate 0 of ``run_borehole_benchmark(seed=s)``.  The grid
    is the held-out points, ``n_grid`` further LHS points and, if the
    workload says so, the high-fidelity design.
    """
    kids = np.random.SeedSequence(entropy=seed, spawn_key=(0,)).spawn(6)
    n_lhs = wl.n_low + wl.n_test
    U = bench.lhs_design(n_lhs, D, np.random.default_rng(kids[0]))
    X = bench.scale_to_box(U)
    rng_split = np.random.default_rng(kids[1])
    test_idx = rng_split.choice(n_lhs, size=wl.n_test, replace=False)
    train = np.ones(n_lhs, dtype=bool)
    train[test_idx] = False
    low_idx = np.nonzero(train)[0]
    high_pos = rng_split.choice(low_idx.size, size=wl.n_high, replace=False)
    high_idx = low_idx[high_pos]
    fit_seed = int(kids[2].generate_state(1, np.uint64)[0] % np.iinfo(np.int64).max)

    y_low = np.array([bench.borehole_low(X[i]) for i in low_idx])
    y_high = np.array([bench.borehole_high(X[i]) for i in high_idx])
    U_extra = bench.lhs_design(max(wl.n_grid, 1), D, np.random.default_rng(kids[4]))
    U_extra = U_extra[: wl.n_grid]
    X_extra = bench.scale_to_box(U_extra)
    U_held = np.vstack([U[test_idx], U_extra])
    truth = np.array(
        [bench.borehole_high(x) for x in np.vstack([X[test_idx], X_extra])]
    )
    n_design = wl.n_high if wl.design_in_grid else 0
    grid = np.vstack([U_held, U[high_idx][:n_design]])
    return {
        "raw": [(U[low_idx], y_low), (U[high_idx], y_high)],
        "fit_seed": fit_seed,
        "grid": grid,
        "grid_y": np.concatenate([truth, y_high[:n_design]]),  # the CLI ignores y
        "truth": truth,
        "design": U[high_idx],
        "design_outputs": np.column_stack([y_low[high_pos], y_high]),
        "design_rows": np.arange(U_held.shape[0], grid.shape[0]),
        "batch": bench.lhs_design(BATCH, D, np.random.default_rng(kids[5])),
    }


# longest stretch of measured work between two calibrations
SEGMENT_S = 0.1


class ArrayKernel:
    """Calibration for fits and set-up: product correlation matrices on 80
    and 200 points, a Cholesky factor and a triangular solve."""

    # seconds it takes on an undisturbed core of the machine the benchmark
    # was built on (Intel Xeon, 2 vCPUs)
    REF_S = 2.5e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self._X = rng.random((200, D))
        A = rng.random((80, 80))
        self._A = A @ A.T + 80.0 * np.eye(80)
        self._y = rng.random(80)

    def __call__(self):
        for n in (80, 200):
            X = self._X[:n]
            R = np.ones((n, n))
            for k in range(D):
                R *= np.exp(-np.abs(X[:, None, k] - X[None, :, k]) ** 1.9)
        L = scipy.linalg.cholesky(self._A, lower=True)
        scipy.linalg.solve_triangular(L, self._y, lower=True)


class CallKernel:
    """Calibration for queries: many small numpy calls, like the per-point
    loops of the CLI and of ``predict``, which slow down more than array
    work when the machine is contended."""

    REF_S = 1.4e-3

    def __init__(self):
        self._X = np.random.default_rng(0).random((80, D))

    def __call__(self):
        X = self._X
        for i in range(150):
            np.any(np.all(np.abs(X - X[i % 80]) <= 0.0, axis=1))


class Clock:
    """Times work in short segments, each scaled by a calibration kernel
    run at both of its ends.

    On the machine the benchmark was built on, speed switched between two
    levels about 1.6x apart for seconds to minutes at a time, so raw
    medians of whole runs spread 20-47% from run to run.  A kernel is fixed
    work that calls no mfcokrig code.  A segment of ``t`` raw seconds
    between kernel times ``c0`` and ``c1`` counts ``t * REF_S / ((c0 + c1)
    / 2)``: seconds on a machine as fast as the reference.  ``tick``,
    called from hooks inside long operations, closes a segment once it is
    ``SEGMENT_S`` long.  Kernel time is never counted.
    """

    def __init__(self, kernel):
        self._run_kernel = kernel
        self._ref_s = kernel.REF_S
        self._open = []  # [raw, reference] seconds of each running measure
        self._seg_start = None
        self._seg_cal = None

    def _kernel(self):
        t0 = time.perf_counter()
        self._run_kernel()
        return time.perf_counter() - t0

    def checkpoint(self):
        """Close the current segment and start the next one."""
        now = time.perf_counter()
        cal = self._kernel()
        if self._seg_start is not None and self._open:
            raw = now - self._seg_start
            ref = raw * self._ref_s / (0.5 * (self._seg_cal + cal))
            for acc in self._open:
                acc[0] += raw
                acc[1] += ref
        self._seg_cal = cal
        self._seg_start = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self._seg_start >= SEGMENT_S:
            self.checkpoint()

    def measure(self, fn, *args, **kwargs):
        """Call ``fn``; returns (result, raw seconds, reference seconds)."""
        acc = [0.0, 0.0]
        self.checkpoint()
        self._open.append(acc)
        try:
            out = fn(*args, **kwargs)
        finally:
            self.checkpoint()
            self._open.remove(acc)
        return out, acc[0], acc[1]

    @contextlib.contextmanager
    def ticking(self, hooks):
        """Tick before every call of each ``(owner, attribute)`` in
        ``hooks``, for as long as the context lasts."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr in hooks]
        for owner, attr, fn in saved:
            setattr(owner, attr, self._ticked(fn))
        try:
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def _ticked(self, fn):
        @functools.wraps(fn)
        def ticked(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)

        return ticked


# calls inside the long operations, where the clock may close a segment:
# one objective evaluation, or one grid point of the CLI's interval loop
FIT_TICKS = ((estimate, "objective"), (estimate, "_plugin_objective"))
QUERY_TICKS = ((CokrigingModel, "credible_interval"),)


TIMINGS = ("fit_s", "query_s", "predict_pts_per_s", "setup_s")


class Session:
    """State and results of one run; ``tracer`` is None when untraced."""

    def __init__(self, wl, seed, workdir):
        self.wl = wl
        self.seed = seed
        self.spec = KernelSpec(family=wl.family, shape=wl.shape, dims=D)
        self.prior = PriorSpec(kind="reference")
        self.model_path = os.path.join(workdir, "model.json")
        self.grid_path = os.path.join(workdir, "grid.csv")
        self.cli_out = os.path.join(workdir, "cli")
        self.fit_clock = Clock(ArrayKernel())  # set-up and fits
        self.query_clock = Clock(CallKernel())  # CLI and library predict
        self.tracer = None
        self.digests = {}
        self.model_digests = []  # saved since the last check
        self.samples = {name: [] for name in TIMINGS}  # reference seconds
        self.raw = {name: [] for name in TIMINGS}  # seconds as measured
        self.rmspe = None
        self.design_rel_err = None
        self.objective_sum = None
        self.attempted = 0
        self.failures = []  # (operation, message)

    def call(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(name, fn, *args, **kwargs)

    def ticks(self, hooks):
        """Clock hooks for an operation; none when traced, where the
        calibration kernel would land inside the spans."""
        return hooks if self.tracer is None else ()

    def record(self, name, raw, ref):
        self.raw[name].append(raw)
        self.samples[name].append(ref)

    # -- set-up -----------------------------------------------------------

    def setup(self):
        _, raw, ref = self.fit_clock.measure(self._setup)
        self.record("setup_s", raw, ref)

    def _setup(self):
        self.inputs = self.call("bench.data_gen", make_inputs, self.wl, self.seed)
        modelio.write_level_csv(
            self.grid_path, self.inputs["grid"], self.inputs["grid_y"]
        )
        if not self.wl.fit_in_op:
            self.fit()

    def fit(self):
        """Fit, build the model and save it; raises on any failure."""
        raw_levels = self.inputs["raw"]
        data = estimate.assemble([(X.copy(), y.copy()) for X, y in raw_levels])
        opts = estimate.OptimOptions(
            seed=self.inputs["fit_seed"],
            n_starts=self.wl.n_starts,
            max_evals=self.wl.max_evals,
        )
        with self.fit_clock.ticking(self.ticks(FIT_TICKS)):
            result, raw, ref = self.fit_clock.measure(
                estimate.fit, data, self.spec, self.prior, opts, method=self.wl.method
            )
        self.record("fit_s", raw, ref)
        self.model = CokrigingModel(data, result)
        modelio.save_model(self.model_path, data, result)
        self.fitted = (result, data)
        self.model_digests.append(checks.sha256(self.model_path))

    # -- timed operation --------------------------------------------------

    def operation(self):
        if self.wl.fit_in_op:
            self.fit()
        argv = ["predict", "--model", self.model_path, "--grid", self.grid_path,
                "--out", self.cli_out, "--seed", str(self.seed)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                self.query_clock.ticking(self.ticks(QUERY_TICKS)):
            rc, raw, ref = self.query_clock.measure(cli.main, argv)
        self.record("query_s", raw, ref)
        if rc != 0:
            raise RuntimeError(f"CLI predict exited {rc}: {sink.getvalue().strip()}")
        for start in range(0, BATCH, BATCH_ROWS):
            rows = self.inputs["batch"][start:start + BATCH_ROWS]
            _, raw, ref = self.query_clock.measure(self.model.predict, rows)
            self.record("predict_pts_per_s", BATCH_ROWS / raw, BATCH_ROWS / ref)

    def check_operation(self):
        """Checks on the CLI and library outputs; untimed and untraced."""
        result, data = self.fitted
        self.check("fit", checks.check_fit(result, data))
        self.objective_sum = sum(lf.objective_value for lf in result.levels)
        while self.model_digests:
            self.check("fit", checks.check_digests(
                self.digests, "model.json", self.model_digests.pop()))
        inputs = self.inputs
        library = self.model.predict(inputs["grid"])
        n_held = inputs["truth"].size
        self.rmspe = checks.rmspe(library.means[:n_held, -1], inputs["truth"])
        self.check("rmspe", checks.check_rmspe(self.rmspe, inputs["truth"]))
        csv_path = os.path.join(self.cli_out, "predictions.csv")
        n_rows = inputs["design_rows"].size
        self.check("predict", checks.check_predictions(
            csv_path, library, inputs["design_rows"], inputs["design_outputs"][:n_rows]))
        self.design_rel_err = checks.max_rel_err(
            self.model.predict(inputs["design"]).means, inputs["design_outputs"])
        self.check("predict", checks.check_digests(
            self.digests, "predictions.csv", checks.sha256(csv_path)))

    def check(self, what, failures):
        self.failures.extend((self.attempted, f"{what}: {m}") for m in failures)

    def run_operation(self):
        """One attempted operation; any raise or failed check fails it."""
        self.attempted += 1
        try:
            if self.tracer is None:
                self.operation()
            else:
                self.tracer.install()
                try:
                    self.tracer.span("op", self.operation)
                finally:
                    self.tracer.uninstall()
            self.check_operation()
        except Exception:  # a failed operation is counted, not fatal
            self.failures.append((self.attempted, traceback.format_exc()))

    @property
    def n_failed(self):
        return len({op for op, _ in self.failures})

    def primary_raw(self):
        """Raw samples of the timing the workload is about: the fit, or
        the CLI query."""
        return self.raw["fit_s" if self.wl.fit_in_op else "query_s"]


def run_untraced(session, seconds):
    for _ in range(session.wl.n_setups):
        session.setup()
    t0 = time.perf_counter()
    while True:
        session.run_operation()
        if time.perf_counter() - t0 >= seconds:
            break
    values = {name: statistics.median(session.samples[name]) for name in TIMINGS}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def run_traced(session, seconds, spans_path):
    """Alternate untraced and traced operations.  The per-layer metrics
    come from the traced ones.  The tracing overhead is the median ratio of
    raw times within each adjacent pair: traced operations skip the clock's
    calibration ticks, which would land inside the spans."""
    session.setup()
    t0 = time.perf_counter()
    tracer = tracing.Tracer()
    session.tracer = tracer
    tracer.install()
    try:
        tracer.span("setup", session.setup)
    finally:
        tracer.uninstall()
    ratios = []  # traced / untraced time of each adjacent pair
    while True:
        pair = []
        for active in (None, tracer):
            session.tracer = active
            timings = session.primary_raw()
            before = len(timings)
            session.run_operation()
            if len(timings) > before:
                pair.append(timings[-1])
        if len(pair) == 2:
            ratios.append(pair[1] / pair[0])
        if time.perf_counter() - t0 >= seconds:
            break
    tracer.write_jsonl(spans_path)
    metrics = tracing.layer_metrics(tracer.spans, "op")
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    return metrics


def openblas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD commit read from ``.git`` without running git; None outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), None)
    return {
        "commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_effective": openblas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--units", required=True, help="JSON {metric: unit}")
    args = parser.parse_args(argv)
    units = json.loads(args.units)

    out_dir = Path(__file__).resolve().parent / "_work"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=stem + "-", dir=out_dir)
    session = Session(WORKLOADS[args.workload], args.seed, workdir)
    try:
        if args.trace:
            values = run_traced(session, args.seconds, out_dir / f"spans-{stem}.jsonl")
        else:
            values = run_untraced(session, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "metrics": metrics,
        "calibration_ref_s": {"fit": ArrayKernel.REF_S, "query": CallKernel.REF_S},
        "samples_ref_s": session.samples,
        "samples_raw_s": session.raw,
        "quality": {
            "objective_sum": session.objective_sum,
            "rmspe": session.rmspe,
            "design_rel_err": session.design_rel_err,
            "fail_frac": session.n_failed / session.attempted,
        },
        "attempted": session.attempted,
        "failures": [{"operation": op, "message": m} for op, m in session.failures],
    }
    (out_dir / f"report-{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    env = report["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {env['commit']}")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"numba {'present' if env['numba_present'] else 'absent'}  "
          f"BLAS {env['blas']} threads {env['blas_threads_effective']} "
          f"(pinned {env['blas_thread_env']})  nproc {env['nproc']}  "
          f"{env['cpu_model']}")
    for name, m in metrics.items():
        note = ""
        if name in TIMINGS and not args.trace:
            raw = statistics.median(session.raw[name])
            note = f"  median of {len(session.raw[name])}, raw {raw:.6g}"
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}{note}")
    q = report["quality"]
    print(f"  objective_sum {q['objective_sum']!r}  rmspe {q['rmspe']!r}  "
          f"design_rel_err {q['design_rel_err']!r}  fail_frac {session.n_failed}/{session.attempted}")
    for op, message in session.failures:
        print(f"  FAILED operation {op}: {message.strip()}")
    print(json.dumps({
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": session.n_failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
