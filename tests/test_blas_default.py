"""`import metaseg` makes OpenBLAS start on one thread unless the user
chose a count: it sets OPENBLAS_NUM_THREADS=1 when none of the three
variables OpenBLAS reads is set.  Each case runs in a fresh interpreter,
since numpy reads the variable once, when it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metaseg
from metaseg import metaclf

VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

needs_thread_count = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or metaclf._blas_setter() is None,
    reason="needs /proc/self/task and numpy on OpenBLAS")

# Defines report(): the three variables and the process's thread count.
REPORT = (
    "import json, os\n"
    "def report():\n"
    "    task = '/proc/self/task'\n"
    f"    return {{'env': {{k: os.environ.get(k) for k in {VARIABLES!r}}},\n"
    "            'threads': len(os.listdir(task)) if os.path.isdir(task) else None}\n"
)
IMPORT_AND_REPORT = "import metaseg\n" + REPORT + "print(json.dumps(report()))\n"


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


@pytest.mark.parametrize("name", VARIABLES)
def test_user_setting_is_left_alone(tmp_path, name):
    out = run(IMPORT_AND_REPORT, tmp_path, **{name: "2"})
    assert out["env"] == {k: "2" if k == name else None for k in VARIABLES}


@needs_thread_count
def test_spawned_child_that_loads_numpy_first_runs_one_thread(tmp_path):
    # numpy loads before the package here, so this process keeps OpenBLAS's
    # default; a "spawn" child imports this script again, numpy first, as a
    # leave-one-out fold worker does, and starts on the variable it inherits.
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
