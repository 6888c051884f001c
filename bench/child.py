"""The measured process of one benchmark repetition.

    python3 bench/child.py JOB.json REPORT.json

It imports metaseg from the job's source directory and records the moment
the package is ready (for `setup_s`).  If the job lists steps, it runs
them in order through `metaseg.cli.run` inside the job's working
directory and records the wall and CPU time of the whole sequence.  With
a trace path it first instruments the package, and writes the spans once,
after the last step.  It does nothing else, so its resource usage is the
workload's own.
"""

import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(job_path: str, report_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import metaseg
    from metaseg import cli

    report = {"ready": time.monotonic(), "module": metaseg.__file__}
    if job.get("steps") is not None:
        recorder = None
        if job.get("trace"):
            import spans

            recorder = spans.Recorder(job["run_id"])
            spans.instrument(recorder)
        os.chdir(job["workdir"])
        results = []
        cpu0, t0 = _cpu_s(), time.perf_counter()
        for argv in job["steps"]:
            s0 = time.perf_counter()
            try:
                rc = cli.run(argv)
            except Exception:
                traceback.print_exc()
                rc = None
            results.append({"argv": argv, "rc": rc,
                            "wall_s": time.perf_counter() - s0})
        report["wall_s"] = time.perf_counter() - t0
        report["cpu_s"] = _cpu_s() - cpu0
        report["steps"] = results
        if recorder is not None:
            recorder.dump(job["trace"])
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
