"""Self-tests of the benchmark's span accounting.

    python3 -m pytest bench/test_spans.py

The tier-1 suite does not collect this file (pytest's testpaths is
`tests`); run it whenever `spans.py` or `child.py` changes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import spans

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _span(sid, name, parent, thread, start, end):
    return (sid, name, parent, thread, start, end, 0.0, 0.0)


def test_nested_spans_on_one_thread():
    tree = [
        _span(0, "cli.run", None, 1, 0.0, 10.0),
        _span(1, "features.a", 0, 1, 1.0, 4.0),
        _span(2, "segments.b", 1, 1, 2.0, 3.0),
        _span(3, "metaclf.c", 0, 1, 5.0, 9.0),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})


def test_overlapping_worker_threads_split_the_instant():
    tree = [
        _span(0, "cli.run", None, 1, 0.0, 10.0),
        _span(1, "scoring.x", 0, 2, 1.0, 6.0),
        _span(2, "raster.y", 0, 3, 2.0, 8.0),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({0: 3.0, 1: 3.0, 2: 4.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_traced_cli_run_self_times_sum_to_root(tmp_path):
    """Instrument metaseg in a child process, run a small pipeline, and
    check the layer self times against the cli.run spans."""
    steps = [
        ["synth", "--out", "scenes", "--count", "4", "--seed", "1",
         "--height", "24", "--width", "24", "--couple"],
        ["score", "--in", "scenes", "--out", "scored"],
        ["metrics", "--in", "scenes", "--out", "mu.csv"],
        ["loo", "--mu", "mu.csv", "--kind", "logistic", "--epochs", "2",
         "--out", "loo.csv"],
    ]
    job = {"src": str(SRC), "steps": steps, "workdir": str(tmp_path),
           "trace": str(tmp_path / "trace.json"), "run_id": "selftest"}
    (tmp_path / "job.json").write_text(json.dumps(job))
    subprocess.run([sys.executable, str(BENCH / "child.py"),
                    str(tmp_path / "job.json"), str(tmp_path / "report.json")],
                   check=True, timeout=120)
    report = json.loads((tmp_path / "report.json").read_text())
    assert [s["rc"] for s in report["steps"]] == [0, 0, 0, 0]

    doc = json.loads((tmp_path / "trace.json").read_text())
    roots = [sp for sp in doc["spans"] if sp[2] is None]
    assert [sp[1] for sp in roots] == ["cli.run"] * len(steps)
    m = spans.layer_metrics(doc)
    layer_sum = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_sum == pytest.approx(m["trace.root_s"], abs=1e-9)
    assert abs(m["trace.identity_residual_s"]) < 1e-9
    # analysis.loo_scores calls train through its own module attribute;
    # rebinding must have made those calls visible.
    names = {sp[1] for sp in doc["spans"]}
    assert {"analysis.loo_scores", "metaclf.train", "synth.generate"} <= names
    assert m["synth.scenes"] == 4
    assert m["analysis.loo_folds"] == m["metaclf.fits"] > 0
    assert m["metaclf.steps"] > 0 and m["features.rows"] > 0
