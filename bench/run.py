"""Benchmark of the metaseg batch pipeline.

    python3 bench/run.py --workload {walkthrough,dense,cityscapes} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  It builds the workload's inputs from
the seed, then starts fresh processes (`bench/child.py`) that import
metaseg from `./src` and run the workload's CLI steps through
`metaseg.cli.run`, one full step sequence per process, as many as fit
in `--seconds` and at least two.  Every repetition's outputs are checked
by `checks.py`.

Prints one `metric <name> <value> <unit>` line per metric, the
environment record, the failed checks, and as its last line a JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
medians over the repetitions; with `--trace 1` one more, instrumented
repetition follows and the metrics are the per-layer ones.  A fuller
record, with every repetition and check, is written to
`.bench_out/<workload>-seed<N>-trace<T>/result.json`.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

DEFAULT_SEED = 7
WORKLOADS = ("walkthrough", "dense", "cityscapes")
# Processes that only import metaseg, so `setup_s` is a median of many.
SETUP_PROBES = 9
# Timed repetitions per run, so that `wall_s` is a median even when one
# repetition fills most of --seconds.
MIN_REPETITIONS = 2
CHILD_TIMEOUT_S = 160.0
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"


class Bench:
    """One benchmark invocation: a workload, its inputs and its records."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.run_dir = root / OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
        self.inputs = self.run_dir / "inputs"
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def prepare(self) -> list:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        if self.workload in workloads.GENERATORS:
            workloads.GENERATORS[self.workload](self.inputs, self.seed)
        return workloads.steps(self.workload, self.seed, str(self.inputs))

    def spawn(self, job: dict) -> dict:
        """Run child.py on a job; returns its report plus setup time and
        the process's peak RSS, or the reason it failed."""
        job_path = self.run_dir / "job.json"
        report_path = self.run_dir / "report.json"
        job_path.write_text(json.dumps(job))
        report_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "child.py"),
                str(job_path), str(report_path)]
        with open(self.run_dir / "child.log", "a") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, stdout=log,
                                    stderr=subprocess.STDOUT)
            status, usage = _wait(proc, t0 + CHILD_TIMEOUT_S)
        if status != 0 or not report_path.exists():
            return {"error": f"child exited with status {status}"}
        report = json.loads(report_path.read_text())
        module = Path(report["module"]).resolve()
        if self.src.resolve() not in module.parents:
            return {"error": f"imported metaseg from {module}, not {self.src}"}
        report["setup_s"] = report["ready"] - t0
        report["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
        return report

    def repetition(self, steps: list, trace_path: Path | None) -> dict:
        work = self.run_dir / "work"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        rep = self.spawn({
            "src": str(self.src), "steps": steps, "workdir": str(work),
            "trace": str(trace_path) if trace_path else None,
            "run_id": f"{self.workload}-seed{self.seed}",
        })
        step_ok = [s["rc"] == 0 for s in rep.get("steps", [])]
        if len(step_ok) != len(steps):
            step_ok = [False] * len(steps)
            self.failures.append(rep.get("error", "steps missing"))
        for s in rep.get("steps", []):
            if s["rc"] != 0:
                self.failures.append(f"step {' '.join(s['argv'])}: rc {s['rc']}")
        res, digests = checks.check_outputs(
            self.workload, work, self.inputs, self.seed == DEFAULT_SEED)
        if trace_path is not None and trace_path.exists():
            layer = spans.layer_metrics(json.loads(trace_path.read_text()))
            rep["layer"] = layer
            res.add("trace_self_time_identity",
                    abs(layer["trace.identity_residual_s"]) <= 1e-6,
                    f"residual {layer['trace.identity_residual_s']:.3g} s")
        elif trace_path is not None:
            res.add("trace_written", False, "no trace file")
        for item in res.items:
            if not item["ok"]:
                self.failures.append(f"check {item['check']}: {item['detail']}")
        self.attempted += len(step_ok) + len(res.items)
        self.failed += step_ok.count(False) + sum(not i["ok"] for i in res.items)
        rep["checks"] = res.items
        rep["digests"] = digests
        return rep


def _wait(proc: subprocess.Popen, deadline: float):
    """Wait for the child and return (exit status, its rusage)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return f"killed after {CHILD_TIMEOUT_S:.0f} s", usage
        time.sleep(0.01)


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(root: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() if out.returncode == 0 else None
    src = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        src.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "METASEG_THREADS": os.environ.get("METASEG_THREADS"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "metaseg" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("run.py: run from the metaseg repository root "
              "(needs src/metaseg and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    bench = Bench(root, args.workload, args.seed, bool(args.trace))
    env = environment(root)
    steps = bench.prepare()

    probe = {"src": str(bench.src)}
    bench.spawn(probe)  # compiles bytecode; not timed
    setups = [bench.spawn(probe).get("setup_s") for _ in range(SETUP_PROBES)]

    reps = []
    start = time.monotonic()
    while True:
        reps.append(bench.repetition(steps, None))
        elapsed = time.monotonic() - start
        # Start another repetition only if it should end within --seconds.
        if len(reps) >= MIN_REPETITIONS \
                and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break
    setups += [r.get("setup_s") for r in reps]
    timed = [r for r in reps if "wall_s" in r]

    def median(key):
        vals = [r[key] for r in timed]
        return statistics.median(vals) if vals else float("nan")

    if args.trace:
        trace_path = bench.run_dir / "trace.json"
        traced = bench.repetition(steps, trace_path)
        values = traced.get("layer", {})
        if "wall_s" in traced and timed:
            values["trace.overhead_frac"] = traced["wall_s"] / median("wall_s") - 1.0
        declared = spec["per_layer"]
    else:
        traced = None
        valid = [s for s in setups if s is not None]
        values = {
            "setup_s": statistics.median(valid) if valid else float("nan"),
            "wall_s": median("wall_s"),
            "cpu_s": median("cpu_s"),
            "peak_rss_mb": median("peak_rss_mb"),
            "ok_frac": 1.0 - bench.failed / bench.attempted,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], float("nan")),
                           "unit": m["unit"]} for m in declared}

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, environment=env,
                  setup_s=setups, repetitions=reps, traced=traced,
                  failures=bench.failures)
    (bench.run_dir / "result.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(bench.inputs, ignore_errors=True)
    shutil.rmtree(bench.run_dir / "work", ignore_errors=True)

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"repetitions {len(reps)}  setup probes {len(setups)}  "
          f"operations {bench.attempted}  failed {bench.failed}  "
          f"fail_frac {bench.failed / bench.attempted!r}")
    for failure in bench.failures:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
