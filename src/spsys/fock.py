"""Truncated Fock spaces and shift tuples for a subproduct system.

The Fock space keeps levels 0..N of the system in fiber coordinates, so the
ambient dimension is the sum of the fiber dimensions, not d^N. Shifts act
block-superdiagonally: level n goes to level n+1 through e_i ⊗ (·) followed
by the level-(n+1) projection, and the outflow of the top level is dropped.
Products of at most N shifts applied to the vacuum are therefore exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from spsys import linalg
from spsys.linalg import check_budget
from spsys.ncpoly import NCPoly
from spsys.subproduct import SubproductSystem

ROW_CONTRACTION_TOL = 1e-10
DEFECT_TOL = 1e-10
VACUUM_AGREEMENT_TOL = 1e-10


@dataclass(frozen=True)
class TruncatedFock:
    """Levels 0..depth of a system, concatenated in fiber coordinates."""

    system: SubproductSystem
    depth: int
    offsets: tuple[int, ...]  # offsets[n] = start of level n; last = total_dim

    @property
    def total_dim(self) -> int:
        return self.offsets[-1]

    @property
    def vacuum_index(self) -> int:
        return 0

    def level_slice(self, n: int) -> slice:
        return slice(self.offsets[n], self.offsets[n + 1])

    def level_dims(self) -> list[int]:
        return [self.offsets[n + 1] - self.offsets[n] for n in range(self.depth + 1)]

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.total_dim, dtype=complex)
        v[self.vacuum_index] = 1.0
        return v

    def particle_projection(self, below: int) -> np.ndarray:
        """Projection onto levels 0..below-1."""
        p = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        cut = self.offsets[min(below, self.depth + 1)]
        p[:cut, :cut] = np.eye(cut)
        return p

    def window(self, top_level: int) -> slice:
        """Index range of levels 0..top_level."""
        return slice(0, self.offsets[min(top_level, self.depth) + 1])


@dataclass(frozen=True)
class ShiftSet:
    """The d shift matrices on a truncated Fock space."""

    fock: TruncatedFock
    matrices: tuple[np.ndarray, ...]

    @property
    def d(self) -> int:
        return len(self.matrices)

    def row(self) -> np.ndarray:
        return np.hstack(self.matrices)

    @property
    def row_norm(self) -> float:
        return linalg.opnorm(self.row())

    def of_word(self, word) -> np.ndarray:
        """S^w = S_{w_1} ... S_{w_k} (identity for the empty word)."""
        out = np.eye(self.fock.total_dim, dtype=complex)
        for a in word:
            out = out @ self.matrices[a - 1]
        return out


def build_fock(system: SubproductSystem, depth: Optional[int] = None) -> TruncatedFock:
    depth = system.depth if depth is None else depth
    if not 1 <= depth <= system.depth:
        raise ValueError("depth must be between 1 and the system depth")
    offsets = [0]
    for n in range(depth + 1):
        offsets.append(offsets[-1] + system.dim(n))
    return TruncatedFock(system, depth, tuple(offsets))


def build_shifts(fock: TruncatedFock, budget: Optional[int] = None) -> ShiftSet:
    """Shift matrices S_i: the letter blocks B_{n+1,i} = F_{n+1}^† (e_i ⊗ F_n)."""
    system = fock.system
    d, total = system.d, fock.total_dim
    check_budget(16 * d * total * total, budget, "shift matrices")
    blocks = system.letter_blocks
    mats = [np.zeros((total, total), dtype=complex) for _ in range(d)]
    for n in range(fock.depth):
        rows, cols = fock.level_slice(n + 1), fock.level_slice(n)
        for i in range(d):
            mats[i][rows, cols] = blocks[n + 1][i]
    return ShiftSet(fock, tuple(mats))


def defect_projection(shifts: ShiftSet, k: int) -> np.ndarray:
    """I - sum_{|w|=k} S^w S^{w*}, built by the recursion A_k = sum_i S_i A_{k-1} S_i^†.

    Valid (equal to the projection onto levels < k) on levels <= depth - k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = shifts.fock.total_dim
    acc = np.eye(total, dtype=complex)
    for _ in range(k):
        acc = sum(s @ acc @ s.conj().T for s in shifts.matrices)
    return np.eye(total) - acc


def annihilation_check(shifts: ShiftSet, p: NCPoly, tol: float = 1e-9) -> dict:
    """Membership of a homogeneous p in the vanishing ideal, two ways.

    Route one projects p(e) onto the fiber; route two applies p(S) to the
    vacuum. The two norms agree identically at finite depth, which is
    reported as `agreement`.
    """
    system = shifts.fock.system
    if not p.is_homogeneous() or p.is_zero():
        raise ValueError("need a nonzero homogeneous polynomial")
    n = p.degree()
    if n > shifts.fock.depth:
        raise ValueError("degree exceeds truncation depth")
    pvec = p.eval_on_basis()
    proj = linalg.project(system.fiber(n), pvec.reshape(-1, 1)).ravel()
    projected_norm = float(np.linalg.norm(proj))
    vac = p.eval_on_tuple(shifts.matrices) @ shifts.fock.vacuum()
    residual = float(np.linalg.norm(vac))
    return {
        "degree": n,
        "in_ideal": projected_norm <= tol,
        "projected_norm": projected_norm,
        "residual": residual,
        "agreement": abs(projected_norm - residual),
        "tol": tol,
    }


def subshift_relations(shifts: ShiftSet, tol: float = DEFECT_TOL) -> dict:
    """Structural relations of a subshift shift tuple, with truncation windows.

    * orthogonality: S_i^† S_j = 0 for i != j;
    * range identity: S_i^† S_i agrees with the sum of S^a S^{a†} over legal
      k-step follower words a of the letter i, up to a projection supported
      on levels < k (its rank is the number of short legal words that i can
      precede);
    * completeness: I - sum_i S_i S_i^† is the vacuum projection on levels
      <= depth-1.
    """
    fock = shifts.fock
    system = fock.system
    if system.kind != "subshift":
        raise ValueError("relations are defined for subshift systems")
    spec = system.provenance["spec"]
    d, n_depth = system.d, fock.depth
    k = spec.step

    ortho = 0.0
    for i in range(d):
        for j in range(d):
            if i != j:
                ortho = max(
                    ortho,
                    linalg.opnorm(shifts.matrices[i].conj().T @ shifts.matrices[j]),
                )

    per_letter = []
    win = fock.window(max(n_depth - k - 1, 0))
    low = fock.particle_projection(k)
    for i in range(1, d + 1):
        si = shifts.matrices[i - 1]
        followers = spec.followers(i, k)
        acc = np.zeros_like(si)
        for a in followers:
            sa = shifts.of_word(a)
            acc += sa @ sa.conj().T
        diff = (si.conj().T @ si - acc)[win, win]
        visible_levels = min(k, max(n_depth - k, 0))
        expected_rank = sum(
            1
            for m in range(visible_levels)
            for w in spec.legal_words(m)
            if spec.is_legal((i,) + w)
        )
        sing = np.linalg.svd(diff, compute_uv=False) if diff.size else np.array([])
        rank = int(np.sum(sing > tol))
        outside = linalg.opnorm(diff - low[win, win] @ diff @ low[win, win])
        per_letter.append(
            {
                "letter": i,
                "followers": len(followers),
                "rank": rank,
                "expected_rank": expected_rank,
                "support_residual": outside,
                "ok": rank == expected_rank and outside <= tol,
            }
        )

    win1 = fock.window(n_depth - 1)
    vac_defect = defect_projection(shifts, 1)
    vac_target = fock.particle_projection(1)
    completeness = linalg.opnorm(vac_defect[win1, win1] - vac_target[win1, win1])

    return {
        "orthogonality": ortho,
        "per_letter": per_letter,
        "completeness_residual": completeness,
        "step": k,
        "ok": ortho <= tol
        and completeness <= tol
        and all(e["ok"] for e in per_letter),
        "tol": tol,
    }


def export_shifts(shifts: ShiftSet, out_dir) -> list:
    """Write shift matrices and the level-offset table as JSON files."""
    from pathlib import Path

    from spsys import formats

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for i, s in enumerate(shifts.matrices, start=1):
        path = out / f"shift_{i}.json"
        formats.dump_json(formats.encode_matrix(s), path)
        written.append(path)
    offsets = {
        "d": shifts.d,
        "depth": shifts.fock.depth,
        "dims": [int(x) for x in shifts.fock.level_dims()],
        "offsets": [int(x) for x in shifts.fock.offsets],
        "total_dim": shifts.fock.total_dim,
    }
    path = out / "offsets.json"
    formats.dump_json(offsets, path)
    written.append(path)
    return written
