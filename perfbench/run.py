"""The spsys benchmark: one workload per call; the last stdout line is the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that holds src/spsys; it benchmarks
that source tree and writes only under .bench_work/ in the checkout.

Each call launches the workload's worker process (perfbench/worker.py)
LAUNCHES times, one after another, with SPSYS_THREADS=1: the middle launch
runs the closed loop of jobs for S seconds, the others stop after set-up.
setup_s is the median time from launch to the first job; its samples sit on
both sides of the measured loop because the speed of a shared machine can
drift over tens of seconds. With --trace 0 the result carries the
end-to-end metrics of untraced jobs; with --trace 1 every second job is
traced and the result carries the per-layer metrics.

Workloads (see workloads.py for the inputs and oracles):
  numeric    in-process: subshift systems through the verify checks, the
             commutator ideal with Poisson kernels and models, and maximal
             pieces of a conjugated full-shift tuple; one job runs them all
  cli-batch  whole spsys commands, one fresh process per job
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("numeric", "cli-batch")
LAUNCHES = 7
TIME_LIMIT_S = 170
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env(root: Path) -> dict:
    """Only the checkout's src on PYTHONPATH, and BLAS pinned to one thread."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(root / "src")
    env["SPSYS_THREADS"] = "1"
    return env


def run_worker(cmd: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Launch one worker; return its launch time and its JSON payload."""
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(deadline - launched, 1.0))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker timed out after {e.timeout:.0f} s") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return launched, json.loads(proc.stdout.strip().splitlines()[-1])


def tail(walls: list[float]) -> tuple[float, float]:
    """The job time at the highest percentile with TAIL_BEYOND jobs beyond it."""
    walls = sorted(walls)
    k = max(len(walls) - TAIL_BEYOND - 1, 0)
    return walls[k], 100.0 * (k + 1) / len(walls)


def end_to_end(out: dict, setup_s: float) -> tuple[dict, dict]:
    jobs = out["jobs"]
    walls = [j["wall"] for j in jobs]
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    tail_s, tail_pct = tail(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(jobs) / (jobs[-1]["end"] - out["ready"]), "1/s"),
        "job_s_p50": (statistics.median(walls), "s"),
        "job_s_tail": (tail_s, "s"),
        "peak_rss_mb": (out["peak_rss_kib"] / 1024.0, "MiB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "accuracy_digits": (min(j["digits"] for j in jobs), "digits"),
    }
    info = {"jobs": len(jobs), "job_s_tail_percentile": tail_pct}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def per_layer(out: dict) -> dict:
    metrics = dict(out["layers"])
    traced = [j["wall"] for j in out["jobs"] if j["traced"]]
    untraced = [j["wall"] for j in out["jobs"] if not j["traced"]]
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def bench(args, root: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    work_root = root / ".bench_work"
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = worker_env(root)
    base = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
            args.workload, str(args.seed), str(args.seconds), str(args.trace),
            str(work_dir)]
    setups = []
    try:
        for i in range(LAUNCHES):
            measured = i == LAUNCHES // 2
            launched, payload = run_worker(base + ([] if measured else ["--setup-only"]),
                                           env, deadline)
            setups.append(payload["ready"] - launched)
            if measured:
                out = payload
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    jobs = out["jobs"]
    known = out["known_defects"]
    failed_ops = sorted({f for j in jobs for f in j["failed_ops"]})
    unexpected = [f for f in failed_ops if f.split(":", 1)[0] not in known]
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            **out["info"], "setup_samples_s": setups, "known_defects": known,
            "failed_ops": failed_ops}
    if args.trace:
        metrics = per_layer(out)
        info["trace_file"] = str(
            (work_root / f"trace-{args.workload}-seed{args.seed}.json").relative_to(root))
    else:
        metrics, extra = end_to_end(out, statistics.median(setups))
        info.update(extra)
    print(json.dumps({"info": info}))
    return {
        # correct: every failed op is a listed known defect; they still
        # count in `failed` and in ok_frac
        "correct": not unexpected,
        "attempted": sum(j["attempted"] for j in jobs),
        "failed": sum(j["failed"] for j in jobs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "spsys" / "__init__.py").is_file():
        print(f"error: no spsys source tree at {root / 'src' / 'spsys'}", file=sys.stderr)
        return 2
    try:
        result = bench(args, root)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
