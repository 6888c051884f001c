"""`import metaseg` decides how many threads OpenBLAS runs on: one, unless
the user chose a count through one of the three variables OpenBLAS reads.
With none set, it sets OPENBLAS_NUM_THREADS=1, and where numpy was
loaded first it also sets OpenBLAS's count to one.  Each case runs in a
fresh interpreter, since numpy reads the variables once, when it loads."""

import ctypes
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metaseg

VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_getter():
    """OpenBLAS's thread-count getter, looked up through numpy's own
    extension module as `metaseg._blas_setter` looks up the setter, or
    None."""
    core = getattr(np, "_core", None) or np.core  # numpy 2.x, else 1.x
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads"):
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter
    return None


needs_openblas = pytest.mark.skipif(
    metaseg._blas_setter() is None or _blas_getter() is None,
    reason="numpy's BLAS has no OpenBLAS thread-count setter or getter")

needs_thread_count = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or metaseg._blas_setter() is None,
    reason="needs /proc/self/task and numpy on OpenBLAS")

# Defines report(): the three variables, the process's thread count and
# OpenBLAS's own count.
REPORT = (
    "import ctypes, json, os\n"
    "import numpy as np\n"
    + inspect.getsource(_blas_getter) +
    "def report():\n"
    "    task = '/proc/self/task'\n"
    "    getter = _blas_getter()\n"
    f"    return {{'env': {{k: os.environ.get(k) for k in {VARIABLES!r}}},\n"
    "            'threads': len(os.listdir(task)) if os.path.isdir(task) else None,\n"
    "            'count': getter() if getter else None}\n"
)
IMPORT_AND_REPORT = "import metaseg\n" + REPORT + "print(json.dumps(report()))\n"
ORDERS = {"metaseg_first": IMPORT_AND_REPORT, "numpy_first": "import numpy\n" + IMPORT_AND_REPORT}


def run(code: str, tmp_path: Path, **preset) -> dict:
    """Run `code` as a script in a fresh interpreter, with the three
    variables removed but for `preset`; returns its last printed line as
    JSON."""
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    env.update(preset)
    src = str(Path(metaseg.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = tmp_path / "script.py"
    script.write_text(code)
    proc = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_sets_one_thread(tmp_path):
    out = run(IMPORT_AND_REPORT, tmp_path)
    assert out["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                          "OMP_NUM_THREADS": None}


@needs_thread_count
def test_import_leaves_one_thread(tmp_path):
    assert run(IMPORT_AND_REPORT, tmp_path)["threads"] == 1


@needs_openblas
@pytest.mark.parametrize("order", ORDERS)
def test_openblas_count_is_one_after_import(tmp_path, order):
    # Where numpy loads first, OpenBLAS has read no variable and starts on
    # its default count; the import sets it to one.
    assert run(ORDERS[order], tmp_path)["count"] == 1


@pytest.mark.parametrize("name", VARIABLES)
def test_user_setting_is_left_alone(tmp_path, name):
    out = run(IMPORT_AND_REPORT, tmp_path, **{name: "2"})
    assert out["env"] == {k: "2" if k == name else None for k in VARIABLES}


@needs_openblas
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps its count at the CPUs")
@pytest.mark.parametrize("name", VARIABLES)
@pytest.mark.parametrize("order", ORDERS)
def test_user_count_holds_after_import(tmp_path, order, name):
    out = run(ORDERS[order], tmp_path, **{name: "2"})
    assert out["env"] == {k: "2" if k == name else None for k in VARIABLES}
    assert out["count"] == 2


@needs_thread_count
def test_spawned_child_that_loads_numpy_first_runs_one_thread(tmp_path):
    # A "spawn" child imports this script again, numpy first, as a
    # leave-one-out fold worker does, and starts on the variable it
    # inherits.
    code = (
        "import numpy\n"
        "import metaseg\n"
        "import multiprocessing\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        + REPORT +
        "\n"
        "if __name__ == '__main__':\n"
        "    spawn = multiprocessing.get_context('spawn')\n"
        "    with ProcessPoolExecutor(1, mp_context=spawn) as pool:\n"
        "        child = pool.submit(report).result()\n"
        "    print(json.dumps({'parent': report(), 'child': child}))\n"
    )
    out = run(code, tmp_path)
    assert out["parent"]["env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert out["child"]["env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert out["child"]["threads"] == 1
