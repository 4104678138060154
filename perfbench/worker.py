"""One workload in one fresh process: set up, then a closed loop of jobs.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORK_DIR [--setup-only]

Started by run.py with SPSYS_THREADS=1 and PYTHONPATH pointing at the
checkout's src. One client runs jobs back to back; the next job starts when
the previous one ends, and rounds of jobs start until SECONDS have passed.
With TRACE=1 every second job is traced. The last stdout line is a JSON
payload for run.py.
"""

import json
import resource
import sys
import time
from pathlib import Path

from spans import COUNT_UNITS, SETUP_JOB, Tracer, layer_totals


def main(argv):
    workload_name, seed, seconds, trace, work_dir = argv[:5]
    setup_only = "--setup-only" in argv[5:]
    seconds, trace, work_dir = float(seconds), trace == "1", Path(work_dir)

    tracer = Tracer()
    # cli-batch commands carry their own import spans, one per job
    tracer.job = SETUP_JOB if trace and workload_name != "cli-batch" else None
    with tracer.span("spsys.import"):
        import spsys
        if workload_name == "cli-batch":
            import spsys.cli  # noqa: F401
    src = Path(spsys.__file__).resolve().parent.parent
    if src != work_dir.parent.parent / "src":
        raise SystemExit(f"spsys imported from {src}, not from this checkout")
    tracer.job = None

    # numpy only after spsys, which pins the BLAS threads before numpy loads
    import numpy as np
    import workloads
    workload = workloads.WORKLOADS[workload_name](
        np.random.default_rng(seed=int(seed)), tracer, work_dir)
    ready = time.monotonic()
    if setup_only:
        print(json.dumps({"ready": ready}))
        return

    jobs = []
    deadline = ready + seconds
    while True:
        for ops in workload.rounds():
            traced = trace and len(jobs) % 2 == 1
            tracer.job = len(jobs) if traced else None
            job = workloads.Job()
            t0 = time.monotonic()
            for name, fn in ops:
                job.run_op(name, fn)
            wall = time.monotonic() - t0
            tracer.job = None
            jobs.append({"wall": wall, "traced": traced, "attempted": job.attempted,
                         "failed": job.failed, "failed_ops": job.failed_ops,
                         "digits": job.digits, "counts": job.counts, "end": t0 + wall})
        # two jobs at least, so that a traced run has an untraced job to compare
        if time.monotonic() >= deadline and len(jobs) >= 2:
            break

    who = resource.RUSAGE_CHILDREN if workload_name == "cli-batch" else resource.RUSAGE_SELF
    payload = {
        "ready": ready,
        "jobs": jobs,
        "peak_rss_kib": resource.getrusage(who).ru_maxrss,
        "known_defects": list(workload.KNOWN_DEFECTS),
        "info": environment_info(np),
    }
    if trace:
        traced_walls = {i: j["wall"] for i, j in enumerate(jobs) if j["traced"]}
        layers = layer_totals(tracer.records, traced_walls)
        for key, unit in COUNT_UNITS.items():
            total = sum(j["counts"].get(key, 0.0) for j in jobs)
            layers[key] = {"value": total / len(jobs), "unit": unit}
        payload["layers"] = layers
        trace_file = work_dir.parent / f"trace-{workload_name}-seed{seed}.json"
        trace_file.write_text(json.dumps(tracer.records))
    print(json.dumps(payload))


def environment_info(np) -> dict:
    import os
    import platform
    from importlib import metadata
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "SPSYS_THREADS": os.environ.get("SPSYS_THREADS"),
    }


if __name__ == "__main__":
    main(sys.argv[1:])
