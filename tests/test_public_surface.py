"""The documented API is the package's ``__all__``, and every name the
benchmark harness wraps or ticks still resolves where it looks it up."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mfcokrig

ROOT = Path(__file__).resolve().parent.parent


def _readme_api_names():
    """Backticked names in the bullet list of README's ``## API`` section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`(\w+)`", section[section.index("\n- "):])


@pytest.fixture(scope="module")
def perfbench():
    """``tracing`` and ``workload`` from ``perfbench/``; ``workload`` only
    imports with the BLAS thread variables set to 1."""
    with pytest.MonkeyPatch.context() as mp:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.setenv(var, "1")
        mp.syspath_prepend(str(ROOT / "perfbench"))
        yield importlib.import_module("tracing"), importlib.import_module("workload")
    for name in ("tracing", "workload", "checks"):
        sys.modules.pop(name, None)


def test_all_is_the_readme_api():
    names = _readme_api_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(mfcokrig.__all__)
    assert len(mfcokrig.__all__) == 45


def test_every_exported_name_resolves():
    for name in mfcokrig.__all__:
        assert hasattr(mfcokrig, name), name


def test_every_benchmark_hook_exists(perfbench):
    tracing, workload = perfbench
    hooks = [(owner, attr) for owner, attr, _, _ in tracing.PATCHES]
    hooks += list(workload.FIT_TICKS) + list(workload.QUERY_TICKS)
    for owner, attr in hooks:
        assert hasattr(owner, attr), f"{owner!r} has no {attr!r}"


def test_import_leaves_scipy_stats_unloaded():
    """``scipy.stats`` takes about as long to import as the rest of the
    package; prediction needs only ``scipy.special``."""
    src = str(Path(mfcokrig.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, mfcokrig; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
