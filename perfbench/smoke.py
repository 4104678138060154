"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

One short pass per workload, untraced and traced, must print every metric
BENCHMARK.json names, with its unit; an op given a deliberately wrong
expected answer must count as failed; and outside a checkout with src/spsys
the benchmark must exit non-zero without a result. Exits 0 when all hold.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, run_py: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run_bench(ROOT, HERE / "run.py", workload, trace)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}: {proc.stderr[-1000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: {proc.stdout[-2000:]}"
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, \
        f"{workload} trace={trace}: metric names differ: {set(got) ^ {m['name'] for m in wanted}}"
    for m in wanted:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], (m["name"], value)
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
        if not trace:
            assert value["value"] != 0, f"{workload}: {m['name']} is 0"
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
          f"{result['failed']}/{result['attempted']} ops failed")


def check_wrong_answer_fails() -> None:
    """A wrong expected answer makes its op fail, and ok_frac counts it."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    import run
    import workloads
    from spans import Tracer

    w = workloads.Numeric(np.random.default_rng(0), Tracer(), ROOT / ".bench_work")
    dims = w.parts["subshift-verify"].golden_dims
    dims[-1] += 1
    job = workloads.Job()
    [ops] = w.rounds()
    for name, fn in ops:
        job.run_op(name, fn)
    assert job.failed == 1, job.failed_ops
    assert job.failed_ops[0].startswith("subshift-verify/golden-dims:"), job.failed_ops
    out = {"ready": 0.0, "peak_rss_kib": 1024, "jobs": [{
        "wall": 1.0, "end": 1.0, "attempted": job.attempted, "failed": job.failed,
        "digits": job.digits}]}
    metrics, _ = run.end_to_end(out, 0.1)
    assert metrics["ok_frac"]["value"] == 1 - 1 / len(ops), metrics["ok_frac"]
    print(f"ok  wrong expected answer counted: ok_frac {metrics['ok_frac']['value']:.4f}")


def check_refuses_without_source() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, bare / HERE.name / "run.py", "numeric", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout.strip() == "", (proc.returncode, proc.stdout)
    print(f"ok  refuses without src/spsys (exit {proc.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
    check_wrong_answer_fails()
    check_refuses_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
