"""In-memory spans around the benchmark's calls into spsys, and their totals.

A span is a record {id, name, start, end, parent, job}. Spans are only
recorded while a job id is set, so untraced jobs pay one attribute test per
call. Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# One name per public function the benchmark calls, by module. linalg and
# ncpoly are reached only through subproduct, fock and reps, so their cost
# lands in those spans' self time.
SPAN_NAMES = (
    "subproduct.from_subshift",
    "subproduct.from_ideal",
    "subproduct.from_qmatrix",
    "subproduct.from_quadratic",
    "subproduct.verify_axioms",
    "fock.build_shifts",
    "fock.defect_projection",
    "fock.subshift_relations",
    "reps.is_representation",
    "reps.PoissonKernel",
    "reps.poisson_transform",
    "reps.model_intertwining_check",
    "reps.vn_inequality_check",
    "reps.CPSemigroup",
    "reps.maximal_piece",
    "linalg.opnorm",
    "spsys.import",
    "cli.import",
    "cli.main",
    "formats.build_system",
    "formats.dump_json",
    "classify.q_equivalent",
    "classify.quad_equivalent",
    "cpmaps.strong_commute_stochastic",
    "cpmaps.as_fiber_dims",
)

# Sizes the benchmark computes from the dimensions it sees, not measures.
COUNT_UNITS = {
    "subproduct.frame_mb": "MiB",
    "fock.shift_mb": "MiB",
    "reps.kernel_mb": "MiB",
    "reps.piece_iterations": "count",
    "formats.bytes_out": "bytes",
}

SETUP_JOB = "setup"

_NULL = contextlib.nullcontext()


class Tracer:
    """Collects spans for the job currently marked as traced."""

    def __init__(self):
        self.records: list[dict] = []
        self.job = None
        self._stack: list[int] = []

    @property
    def active(self) -> bool:
        return self.job is not None

    def span(self, name: str):
        return self._record(name) if self.job is not None else _NULL

    @contextlib.contextmanager
    def _record(self, name: str):
        rec = {"id": len(self.records), "name": name, "start": time.monotonic(),
               "end": None, "parent": self._stack[-1] if self._stack else None,
               "job": self.job}
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def add(self, spans: list[dict]) -> None:
        """Adopt spans recorded in another process, renumbered, for this job."""
        base = len(self.records)
        for s in spans:
            parent = s["parent"]
            self.records.append({
                "id": base + s["id"], "name": s["name"], "start": s["start"],
                "end": s["end"], "parent": None if parent is None else base + parent,
                "job": self.job,
            })


def self_times(records: list[dict]) -> list[tuple[dict, float]]:
    """Each span with its duration minus its children's durations."""
    child_time = defaultdict(float)
    for r in records:
        if r["parent"] is not None:
            child_time[r["parent"]] += r["end"] - r["start"]
    return [(r, r["end"] - r["start"] - child_time[r["id"]]) for r in records]


def layer_totals(records: list[dict], job_walls: dict) -> dict:
    """Per-layer metrics: mean self seconds and calls per traced job.

    `job_walls` maps each traced job id to its wall time. Spans of the
    set-up phase (the in-process import) are reported per process.
    A mean is used rather than a median because in cli-batch a job is one
    command, and most layers are reached by only some of the commands.
    """
    n_jobs = max(len(job_walls), 1)
    self_s = defaultdict(float)
    calls = defaultdict(float)
    root_s = defaultdict(float)
    for r, own in self_times(records):
        weight = 1.0 if r["job"] == SETUP_JOB else 1.0 / n_jobs
        self_s[r["name"]] += own * weight
        calls[r["name"]] += weight
        if r["parent"] is None and r["job"] in job_walls:
            root_s[r["job"]] += r["end"] - r["start"]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = {"value": self_s[name], "unit": "s"}
        out[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
    unattributed = sum(w - root_s[j] for j, w in job_walls.items()) / n_jobs
    out["bench.unattributed_s"] = {"value": unattributed, "unit": "s"}
    return out
