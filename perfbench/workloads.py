"""The benchmark workloads, their seeded inputs and their oracles.

Every op calls into spsys inside a span and then checks the answer against
a value this file works out itself: Fibonacci and binomial dimensions,
brute-force legal-word counts, known maximal-piece dimensions and subspaces,
and the rule that a report never says `pass` for a residual above its
threshold. An op fails on an exception, an unexpected exit code, a wrong
answer or such a report.

A seed changes the inputs (letter relabelings, random tuples, the unitary U)
but not their sizes, so a job costs the same on every seed.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from spsys import fock, linalg, ncpoly, reps, subproduct
from spsys.reps import RepTuple
from spsys.subproduct import SubshiftSpec

DIGITS_CAP = 3.0
MIB = float(1 << 20)

# Sizes: each job must be short enough that one run of a few tens of seconds
# holds dozens of jobs, so that medians and the tail percentile are steady.
GOLDEN_DIMS_DEPTH = 12
GOLDEN_VERIFY_DEPTH = 9
D3_VERIFY_DEPTH = 5
D3_FORBIDDEN = ((1, 1), (2, 3), (3, 2, 1))
IDEAL_DEPTH = 8
IDEAL_H = 4
ROW_NORM = 0.8
KERNEL_R = 0.9
WORD_PAIRS = (((1,), (2,)), ((1, 2), (3,)), ((2, 3), (1, 1)))
PIECE_DEPTH = 5
QMAT_DEPTH = 7
QMAT = np.array([[1, 2, 0.5j], [0.5, 1, 3], [-2j, 1 / 3, 1]], dtype=complex)
QUAD_COMMUTE = np.array([[0, 1], [-1, 0]], dtype=complex)

# Tolerances: the spsys CLI defaults for the same checks.
AXIOMS_TOL = 1e-9
DEFECT_TOL = 1e-10
SUBSHIFT_TOL = 1e-10
REP_TOL = 1e-8
SEMIGROUP_TOL = 1e-9
PIECE_TOL = 1e-9
KERNEL_TOL = 1e-9

# CLI checks whose threshold is a truncation bound set by the seeded tuple's
# spectrum; they count for pass/fail but not for accuracy_digits.
TRUNCATION_CHECKS = {"kernel-isometry"}


class CheckFailed(Exception):
    pass


class Job:
    """Outcome of one job: op counts, the accuracy floor and computed sizes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_ops: list[str] = []
        self.digits = DIGITS_CAP
        self.counts: dict[str, float] = {}

    def run_op(self, name: str, fn) -> None:
        self.attempted += 1
        try:
            fn(self)
        except Exception as e:  # an op that raises is a failed op, not a crash
            self.failed += 1
            self.failed_ops.append(f"{name}: {type(e).__name__}: {e}")

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def residual(self, what: str, residual: float, threshold: float,
                 reported_ok=None, digits: bool = True) -> None:
        """Require residual <= threshold, and a report that agrees with it."""
        residual = float(residual)
        if reported_ok is not None and bool(reported_ok) != (residual <= threshold):
            raise CheckFailed(f"{what}: report says ok={reported_ok} for residual "
                              f"{residual:.3e} against {threshold:.3e}")
        if not residual <= threshold:
            raise CheckFailed(f"{what}: residual {residual:.3e} > {threshold:.3e}")
        if digits:
            self.digits = min(self.digits, accuracy_digits(residual, threshold))


def accuracy_digits(residual: float, threshold: float) -> float:
    if residual == 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, math.log10(threshold / residual))


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# oracles

def fibonacci_dims(depth: int) -> list[int]:
    out, a, b = [], 1, 2
    for _ in range(depth + 1):
        out.append(a)
        a, b = b, a + b
    return out


def commutative_dims(d: int, depth: int) -> list[int]:
    return [math.comb(n + d - 1, d - 1) for n in range(depth + 1)]


def legal_words(d: int, forbidden, n: int) -> list[tuple[int, ...]]:
    """Words of length n with no forbidden subword, by brute force, in index order."""
    out = []
    for w in itertools.product(range(1, d + 1), repeat=n):
        if not any(w[s:s + len(f)] == f for f in forbidden
                   for s in range(n - len(f) + 1)):
            out.append(w)
    return out


def word_index(w, d: int) -> int:
    idx = 0
    for a in w:
        idx = idx * d + (a - 1)
    return idx


def relabel(words, perm) -> tuple:
    """Apply the letter map a -> perm[a - 1] to every word."""
    return tuple(tuple(int(perm[a - 1]) for a in w) for w in words)


def frame_mb(system) -> float:
    return sum(16 * system.d ** n * r for n, r in enumerate(system.dims())) / MIB


def random_unitary(rng, h: int) -> np.ndarray:
    z = rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def commuting_tuple(rng, d: int, h: int, row_norm: float) -> list[np.ndarray]:
    """d polynomials in one random matrix, scaled to the given row norm."""
    a = rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))
    mats = []
    for _ in range(d):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        mats.append(c[0] * np.eye(h) + c[1] * a + c[2] * a @ a)
    scale = row_norm / np.linalg.norm(np.hstack(mats), 2)
    return [scale * m for m in mats]


def full_shift_tuple(d: int, depth: int) -> list[np.ndarray]:
    """Letter-prepending 0/1 matrices on all words of length <= depth."""
    offsets = np.cumsum([0] + [d ** n for n in range(depth + 1)])
    h = int(offsets[-1])
    mats = [np.zeros((h, h), dtype=complex) for _ in range(d)]
    for n in range(depth):
        for idx in range(d ** n):
            for i in range(d):
                mats[i][offsets[n + 1] + i * d ** n + idx, offsets[n] + idx] = 1.0
    return mats


def subspace_distance(frame_a: np.ndarray, frame_b: np.ndarray) -> float:
    """Spectral norm of the difference of the orthogonal projections."""
    pa = frame_a @ frame_a.conj().T
    pb = frame_b @ frame_b.conj().T
    return float(np.linalg.norm(pa - pb, 2))


# ---------------------------------------------------------------------------
# the three parts of the in-process workload

class SubshiftVerify:
    """Coordinate systems with large fibers, through the `spsys verify` path."""

    def __init__(self, rng, tracer):
        self.tracer = tracer
        self.golden = SubshiftSpec(2, relabel(((2, 2),), rng.permutation(2) + 1))
        self.golden_dims = fibonacci_dims(GOLDEN_DIMS_DEPTH)
        forbidden = relabel(D3_FORBIDDEN, rng.permutation(3) + 1)
        self.d3 = SubshiftSpec(3, forbidden)
        self.d3_dims = [len(legal_words(3, forbidden, n))
                        for n in range(D3_VERIFY_DEPTH + 1)]

    def ops(self):
        return [
            ("golden-dims", self.golden_dims_op),
            ("golden-verify", lambda job: self.verify(
                job, self.golden, GOLDEN_VERIFY_DEPTH,
                self.golden_dims[:GOLDEN_VERIFY_DEPTH + 1])),
            ("d3-verify", lambda job: self.verify(
                job, self.d3, D3_VERIFY_DEPTH, self.d3_dims)),
        ]

    def golden_dims_op(self, job):
        with self.tracer.span("subproduct.from_subshift"):
            system = subproduct.from_subshift(self.golden, GOLDEN_DIMS_DEPTH)
        job.count("subproduct.frame_mb", frame_mb(system))
        expect(system.dims() == self.golden_dims, f"dims {system.dims()}")

    def verify(self, job, spec, depth, dims):
        span = self.tracer.span
        with span("subproduct.from_subshift"):
            system = subproduct.from_subshift(spec, depth)
        job.count("subproduct.frame_mb", frame_mb(system))
        expect(system.dims() == dims, f"dims {system.dims()} != {dims}")
        with span("subproduct.verify_axioms"):
            ax = subproduct.verify_axioms(system, tol=AXIOMS_TOL)
        job.residual("axioms", ax["max_residual"], AXIOMS_TOL, ax["ok"])
        with span("fock.build_shifts"):
            shifts = fock.build_shifts(fock.build_fock(system))
        total = sum(dims)
        job.count("fock.shift_mb", 16 * spec.d * total * total / MIB)
        expect(shifts.fock.total_dim == total, f"Fock dim {shifts.fock.total_dim}")
        for k in (1, 2):
            win = shifts.fock.window(depth - k)
            with span("fock.defect_projection"):
                dk = fock.defect_projection(shifts, k)[win, win]
            target = np.zeros_like(dk)
            low = sum(dims[:k])
            target[:low, :low] = np.eye(low)
            with span("linalg.opnorm"):
                res = linalg.opnorm(dk - target)
            job.residual(f"defect-k{k}", res, DEFECT_TOL)
        with span("fock.subshift_relations"):
            rel = fock.subshift_relations(shifts, tol=SUBSHIFT_TOL)
        residual = max([rel["orthogonality"], rel["completeness_residual"]]
                       + [e["support_residual"] for e in rel["per_letter"]])
        job.residual("subshift", residual, SUBSHIFT_TOL, rel["ok"])
        expect(rel["step"] == max(len(w) for w in spec.forbidden) - 1, "step")


class IdealPoisson:
    """Small dense fibers and many levels, on the representation side."""

    def __init__(self, rng, tracer):
        self.tracer = tracer
        self.gens = ncpoly.commutator_gens(3)
        self.dims = commutative_dims(3, IDEAL_DEPTH)
        self.mats = commuting_tuple(rng, 3, IDEAL_H, ROW_NORM)
        self.a = rng.normal(size=(IDEAL_H, IDEAL_H)) + 1j * rng.normal(size=(IDEAL_H, IDEAL_H))
        x = [ncpoly.NCPoly.monomial(3, (i,)) for i in (1, 2, 3)]
        self.p = x[0] + x[1] * x[2]
        self.q = x[1] - x[0] * x[2]
        self.system = None
        self.kernel = None

    def ops(self):
        ops = [("from_ideal", self.build), ("is_representation", self.is_rep),
               ("poisson_kernel", self.poisson_kernel)]
        ops += [(f"poisson_transform{a}{b}", lambda job, a=a, b=b: self.transform(job, a, b))
                for a, b in WORD_PAIRS]
        ops += [("model_intertwining", self.model), ("vn_inequality", self.vn),
                ("cp_semigroup", self.semigroup)]
        return ops

    def rep(self) -> RepTuple:
        return RepTuple(tuple(self.mats))

    def build(self, job):
        self.system = self.kernel = None
        with self.tracer.span("subproduct.from_ideal"):
            system = subproduct.from_ideal(self.gens, IDEAL_DEPTH)
        job.count("subproduct.frame_mb", frame_mb(system))
        expect(system.dims() == self.dims, f"dims {system.dims()}")
        self.system = system

    def is_rep(self, job):
        with self.tracer.span("reps.is_representation"):
            res = reps.is_representation(self.system, self.rep(), tol=REP_TOL)
        job.residual("representation", res["max_residual"], REP_TOL, res["ok"])

    def poisson_kernel(self, job):
        with self.tracer.span("reps.PoissonKernel"):
            kernel = reps.PoissonKernel(self.system, self.rep(), KERNEL_R)
            defect = kernel.isometry_defect()
        job.count("reps.kernel_mb", kernel.matrix.nbytes / MIB)
        job.residual("kernel-isometry", defect, kernel.tail_bound() + KERNEL_TOL,
                     digits=False)
        self.kernel = kernel

    def transform(self, job, alpha, beta):
        with self.tracer.span("reps.poisson_transform"):
            res = reps.poisson_transform(self.kernel, alpha, beta)
        job.residual("poisson-transform", res["residual"], res["bound"] + 1e-9,
                     res["ok"], digits=False)

    def model(self, job):
        with self.tracer.span("reps.model_intertwining_check"):
            res = reps.model_intertwining_check(self.system, self.rep(), KERNEL_R)
        job.residual("model", max(res["residuals"]), res["bound"] + res["tol"],
                     res["ok"], digits=False)

    def vn(self, job):
        with self.tracer.span("reps.vn_inequality_check"):
            res = reps.vn_inequality_check(self.system, self.rep(), self.p, self.q)
        expect(res["verdict"] in ("pass", "inconclusive"), f"verdict {res['verdict']}")
        expect((res["verdict"] == "pass") == (res["lhs"] <= res["rhs"] + 1e-8),
               "vN verdict disagrees with lhs/rhs")

    def semigroup(self, job):
        m = IDEAL_DEPTH // 2 - 1
        with self.tracer.span("reps.CPSemigroup"):
            semi = reps.CPSemigroup(self.system, self.rep())
            res = semi.semigroup_residual(m, IDEAL_DEPTH - m, self.a)
        job.residual("semigroup", res, SEMIGROUP_TOL)


class PieceMaximal:
    """The maximal-completion and maximal-piece routes."""

    def __init__(self, rng, tracer):
        self.tracer = tracer
        d, depth = 2, PIECE_DEPTH
        letter = int(rng.integers(1, 3))
        self.golden = SubshiftSpec(2, ((letter, letter),))
        u = random_unitary(rng, (d ** (depth + 1) - 1) // (d - 1))
        self.mats = [u @ s @ u.conj().T for s in full_shift_tuple(d, depth)]
        offset, legal = 0, []
        for n in range(depth + 1):
            legal += [offset + word_index(w, d) for w in legal_words(d, self.golden.forbidden, n)]
            offset += d ** n
        self.legal_frame = u[:, legal]
        self.quad_dim = sum(n + 1 for n in range(depth + 1))
        perm = rng.permutation(3)
        self.q = QMAT[np.ix_(perm, perm)]
        self.q_dims = commutative_dims(3, QMAT_DEPTH)

    def ops(self):
        return [("piece-golden", self.piece_golden), ("piece-quadratic", self.piece_quad),
                ("qmatrix", self.qmatrix)]

    def piece(self, job, system):
        with self.tracer.span("reps.maximal_piece"):
            res = reps.maximal_piece(system, RepTuple(tuple(self.mats)), tol=PIECE_TOL)
        job.count("reps.piece_iterations", res["iterations"])
        job.residual("piece-fixed-point", res["residual"], PIECE_TOL)
        return res

    def piece_golden(self, job):
        with self.tracer.span("subproduct.from_subshift"):
            system = subproduct.from_subshift(self.golden, PIECE_DEPTH)
        job.count("subproduct.frame_mb", frame_mb(system))
        res = self.piece(job, system)
        expect(res["dim"] == self.legal_frame.shape[1], f"piece dim {res['dim']}")
        job.residual("piece-distance",
                     subspace_distance(res["subspace"].frame, self.legal_frame), PIECE_TOL)

    def piece_quad(self, job):
        with self.tracer.span("subproduct.from_quadratic"):
            system = subproduct.from_quadratic(QUAD_COMMUTE, PIECE_DEPTH)
        job.count("subproduct.frame_mb", frame_mb(system))
        expect(system.dims() == commutative_dims(2, PIECE_DEPTH), f"dims {system.dims()}")
        res = self.piece(job, system)
        expect(res["dim"] == self.quad_dim, f"piece dim {res['dim']}")

    def qmatrix(self, job):
        with self.tracer.span("subproduct.from_qmatrix"):
            system = subproduct.from_qmatrix(self.q, QMAT_DEPTH)
        job.count("subproduct.frame_mb", frame_mb(system))
        expect(system.dims() == self.q_dims, f"dims {system.dims()}")
        with self.tracer.span("subproduct.verify_axioms"):
            ax = subproduct.verify_axioms(system, tol=AXIOMS_TOL)
        job.residual("axioms", ax["max_residual"], AXIOMS_TOL, ax["ok"])


class Numeric:
    """The in-process workload: one job runs every op of the three parts.

    One workload covers subproduct, fock and reps, so that the benchmark's
    run count leaves room for runs long enough to be steady; the spans split
    the job time by layer.
    """

    PARTS = {"subshift-verify": SubshiftVerify, "ideal-poisson": IdealPoisson,
             "piece-maximal": PieceMaximal}
    KNOWN_DEFECTS = ()

    def __init__(self, rng, tracer, work_dir):
        self.parts = {name: part(rng, tracer) for name, part in self.PARTS.items()}

    def rounds(self) -> list[list]:
        return [[(f"{name}/{op}", fn) for name, part in self.parts.items()
                 for op, fn in part.ops()]]


# ---------------------------------------------------------------------------
# whole CLI commands, one fresh process each

def _matrix(m) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {"rows": m.shape[0], "cols": m.shape[1],
            "data": [[z.real, z.imag] for z in m.ravel().tolist()]}


def _unmatrix(obj) -> np.ndarray:
    data = np.array(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _write_csv(path: Path, m: np.ndarray) -> str:
    path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in m) + "\n")
    return str(path)


def random_stochastic(rng, n: int) -> np.ndarray:
    m = rng.uniform(0.05, 1.0, size=(n, n)) ** 2
    return m / m.sum(axis=1, keepdims=True)


def strong_commute_oracle(p: np.ndarray, q: np.ndarray, tol: float) -> bool:
    """Support counts #{j: q_kj p_ji > tol} and #{j: p_kj q_ji > tol} agree."""
    qp = np.sum(q[:, :, None] * p[None, :, :] > tol, axis=1)
    pq = np.sum(p[:, :, None] * q[None, :, :] > tol, axis=1)
    return bool(np.array_equal(qp, pq))


def choi_rank_oracle(kraus: list[np.ndarray], n: int) -> int:
    """Rank of the span of the length-n Kraus products."""
    h = kraus[0].shape[0]
    vecs = [np.eye(h).ravel()] if n == 0 else [
        np.linalg.multi_dot([np.eye(h)] + [kraus[i] for i in w]).ravel()
        for w in itertools.product(range(len(kraus)), repeat=n)]
    return int(np.linalg.matrix_rank(np.array(vecs), tol=1e-9))


class CliBatch:
    """Whole `spsys` commands, one fresh process each; a job is one command."""

    # The criterion does not apply to a non-commuting pair, so a report of
    # `pass` there is wrong. spsys reports `pass` (exit 0): a known defect,
    # kept so that it counts in this workload's failures.
    KNOWN_DEFECTS = ("cp-strong-commute-noncommuting",)
    NONCOMMUTING = (np.array([[0.5, 0.5], [0.1, 0.9]]), np.array([[1.0, 0.0], [0.3, 0.7]]))

    GOLDEN_DEPTH = 7
    GOLDEN_DIMS_DEPTH = 10
    SHIFT_DEPTH = 8
    IDEAL_DEPTH = 6
    REP_H = 3
    AS_DIMS_N = 4

    SHIM = Path(__file__).resolve().parent / "clishim.py"

    def __init__(self, rng, tracer, work_dir: Path):
        self.tracer = tracer
        w = work_dir
        letter = int(rng.integers(1, 3))
        self.golden_spec = _write_json(w / "golden.json", {
            "kind": "subshift", "d": 2, "depth": self.GOLDEN_DEPTH,
            "forbidden": [[letter, letter]]})
        gens = [[{"coeff": [1.0, 0.0], "word": [i, j]}, {"coeff": [-1.0, 0.0], "word": [j, i]}]
                for i in range(1, 4) for j in range(i + 1, 4)]
        self.ideal_spec = _write_json(w / "ideal.json", {
            "kind": "ideal", "d": 3, "depth": self.IDEAL_DEPTH, "generators": gens})
        self.commute_spec = _write_json(w / "commuting.json", {
            "kind": "quadratic", "d": 2, "depth": 6, "A": _matrix(QUAD_COMMUTE)})
        mats = commuting_tuple(rng, 2, self.REP_H, ROW_NORM)
        self.rep = _write_json(w / "rep.json", {
            "d": 2, "h": self.REP_H, "matrices": [_matrix(m) for m in mats]})
        # q-matrices: a seeded admissible q and a seeded relabeling of it
        d = 3
        q = np.ones((d, d), dtype=complex)
        for i in range(d):
            for j in range(i + 1, d):
                z = np.exp(rng.uniform(-1, 1) + 1j * rng.uniform(0.3, 2.8))
                q[i, j], q[j, i] = z, 1 / z
        perm = rng.permutation(d)
        self.qmat = (q, q[np.ix_(perm, perm)])
        self.qmat_files = (_write_json(w / "qa.json", _matrix(self.qmat[0])),
                           _write_json(w / "qb.json", _matrix(self.qmat[1])))
        # quadratics: B = lam U^t A U for a seeded A, lam and unitary U
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lam = np.exp(rng.uniform(-0.5, 0.5) + 1j * rng.uniform(0, 2 * np.pi))
        u = random_unitary(rng, 2)
        self.quad = (a, lam * u.T @ a @ u)
        self.quad_files = (_write_json(w / "quad_a.json", _matrix(self.quad[0])),
                           _write_json(w / "quad_b.json", _matrix(self.quad[1])))
        p = random_stochastic(rng, 3)
        wts = rng.uniform(0.1, 1.0, size=3)
        wts /= wts.sum()
        qq = wts[0] * np.eye(3) + wts[1] * p + wts[2] * p @ p
        self.commuting = (p, qq)
        self.commuting_files = (_write_csv(w / "p.csv", p), _write_csv(w / "q.csv", qq))
        self.noncommuting_files = (_write_csv(w / "np.csv", self.NONCOMMUTING[0]),
                                   _write_csv(w / "nq.csv", self.NONCOMMUTING[1]))
        self.kraus = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
        self.kraus_file = _write_json(w / "kraus.json", {
            "h": 2, "kraus": [_matrix(k) for k in self.kraus]})
        self.build_out = w / "fibers.json"
        self.shift_out = w / "shifts"
        self.spans_file = w / "spans.json"

    def rounds(self):
        return [[op] for op in self.ops()]

    def ops(self):
        g, spec = self.golden_spec, "--spec"
        commute = [spec, self.commute_spec, "--rep", self.rep]
        return [
            ("dims-golden", lambda job: self.dims(job, g, self.GOLDEN_DIMS_DEPTH,
                                                  fibonacci_dims(self.GOLDEN_DIMS_DEPTH))),
            ("dims-ideal", lambda job: self.dims(job, self.ideal_spec, self.IDEAL_DEPTH,
                                                 commutative_dims(3, self.IDEAL_DEPTH))),
            ("verify", lambda job: self.checked(
                job, ["verify", spec, g, "--checks", "axioms,defect,subshift,unit"],
                lambda job, r: expect(r["dims"] == fibonacci_dims(self.GOLDEN_DEPTH), "dims"))),
            ("build", lambda job: self.checked(
                job, ["build", spec, g, "--out", str(self.build_out)], self.built)),
            ("shift", lambda job: self.checked(
                job, ["shift", spec, g, "--depth", str(self.SHIFT_DEPTH),
                      "--out", str(self.shift_out)], self.shifted)),
            ("check-rep", lambda job: self.checked(
                job, ["check-rep", *commute],
                lambda job, r: expect(r["route"] == "generators", "route"))),
            ("poisson", lambda job: self.checked(job, ["poisson", *commute, "--r", str(KERNEL_R)])),
            ("piece", lambda job: self.checked(
                job, ["piece", *commute],
                lambda job, r: expect(r["dim"] == self.REP_H, f"piece dim {r['dim']}"))),
            ("classify-qmat", lambda job: self.checked(
                job, ["classify", "qmat", *self.qmat_files], self.qmat_answer)),
            ("classify-quad", lambda job: self.checked(
                job, ["classify", "quad", *self.quad_files], self.quad_answer)),
            ("cp-strong-commute", lambda job: self.checked(
                job, ["cp", "strong-commute", *self.commuting_files], self.strong_answer)),
            ("cp-strong-commute-noncommuting", lambda job: self.checked(
                job, ["cp", "strong-commute", *self.noncommuting_files],
                lambda job, r: expect(r["commute"] is False, "commute"), exit_codes=(1, 2))),
            ("cp-as-dims", lambda job: self.checked(
                job, ["cp", "as-dims", self.kraus_file, "--n", str(self.AS_DIMS_N)],
                lambda job, r: expect(r["dims"] == [choi_rank_oracle(self.kraus, n)
                                               for n in range(self.AS_DIMS_N + 1)],
                                 f"dims {r['dims']}"))),
        ]

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        """Run one command; traced jobs go through the span-recording shim."""
        for old in [self.build_out, self.spans_file, *self.shift_out.glob("*")]:
            old.unlink(missing_ok=True)
        if self.tracer.active:
            cmd = [sys.executable, str(self.SHIM), str(self.spans_file), *argv]
        else:
            cmd = [sys.executable, "-m", "spsys.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if self.tracer.active:
            self.tracer.add(json.loads(self.spans_file.read_text()))
        return proc

    def dims(self, job, spec_file, depth, dims):
        proc = self.run(["dims", "--spec", spec_file, "--depth", str(depth)])
        expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-200:]}")
        expect([int(x) for x in proc.stdout.split()] == dims, f"dims {proc.stdout.strip()}")

    def checked(self, job, argv, oracle=None, exit_codes=(0,)):
        proc = self.run(argv)
        expect(proc.stdout.strip() != "", f"no report, exit {proc.returncode}: "
                                          f"{proc.stderr[-200:]}")
        report = json.loads(proc.stdout)
        for c in report["checks"]:
            over = not c["residual"] <= c["threshold"]
            expect(not (c["verdict"] == "pass" and over),
                   f"{c['check_id']} says pass with residual {c['residual']:.3e} "
                   f"above {c['threshold']:.3e}")
        expect(proc.returncode in exit_codes, f"exit {proc.returncode}")
        for c in report["checks"]:
            if c["verdict"] == "pass" and c["check_id"] not in TRUNCATION_CHECKS:
                job.digits = min(job.digits, accuracy_digits(c["residual"], c["threshold"]))
        if oracle is not None:
            oracle(job, report)

    def built(self, job, report):
        job.count("formats.bytes_out", self.build_out.stat().st_size)
        out = json.loads(self.build_out.read_text())
        expect(out["dims"] == fibonacci_dims(self.GOLDEN_DEPTH), "built dims")
        expect([f["cols"] for f in out["fibers"]] == out["dims"][1:], "fiber frames")

    def shifted(self, job, report):
        job.count("formats.bytes_out", sum(f.stat().st_size for f in self.shift_out.iterdir()))
        meta = json.loads((self.shift_out / "offsets.json").read_text())
        dims = fibonacci_dims(self.SHIFT_DEPTH)
        expect(meta["dims"] == dims and meta["total_dim"] == sum(dims), "shift dims")
        for i in (1, 2):
            m = json.loads((self.shift_out / f"shift_{i}.json").read_text())
            expect(m["rows"] == m["cols"] == sum(dims), "shift matrix shape")

    def qmat_answer(self, job, report):
        expect(report["equivalent"] is True, "q-matrices not found equivalent")
        q, r = self.qmat
        sigma = [s - 1 for s in report["perm"]]
        worst = max(abs(r[sigma[i], sigma[j]] - q[i, j])
                    for i in range(3) for j in range(3) if i != j)
        expect(worst <= 1e-10, f"permutation residual {worst:.3e}")

    def quad_answer(self, job, report):
        expect(report["equivalent"] is True, "quadratics not found equivalent")
        a, b = self.quad
        lam = complex(*report["lam"])
        u = _unmatrix(report["u"])
        expect(np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-8, "witness not unitary")
        res = np.linalg.norm(lam * u.T @ a @ u - b)
        expect(res <= 1e-8 * max(1.0, np.linalg.norm(b)), f"witness residual {res:.3e}")

    def strong_answer(self, job, report):
        p, q = self.commuting
        expect(report["commute"] is True, "commuting pair reported non-commuting")
        expect(report["strong"] == strong_commute_oracle(p, q, 1e-12), "strong")


WORKLOADS = {
    "numeric": Numeric,
    "cli-batch": CliBatch,
}

