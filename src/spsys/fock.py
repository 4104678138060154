"""Truncated Fock spaces and shift tuples for a subproduct system.

The Fock space keeps levels 0..N of the system in fiber coordinates, so the
ambient dimension is the sum of the fiber dimensions, not d^N. Shifts act
block-superdiagonally: S_i sends level n to level n+1 through the letter
block B_{n+1,i} (shape r_{n+1} × r_n), and the outflow of the top level is
dropped. Products of at most N shifts applied to the vacuum are therefore
exact.

A shift tuple is held as these blocks. S_i†S_j, the follower sums S^a S^{a†}
and the defect recursion are block-diagonal, so every check here runs level
by level; the dense total × total matrices are a view built on demand, for
export and for operator norms that need them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    def window(self, top_level: int) -> slice:
        """Index range of levels 0..top_level."""
        return slice(0, self.offsets[min(top_level, self.depth) + 1])


@dataclass(frozen=True)
class ShiftSet:
    """The d shifts on a truncated Fock space, held as their letter blocks.

    blocks[n][i] = B_{n,i} (r_n × r_{n-1}) is S_{i+1} from level n-1 to level
    n, for n = 1..depth; blocks[0] has no columns. `matrices` is the dense
    view, checked against `budget` before it is assembled.
    """

    fock: TruncatedFock
    blocks: tuple[np.ndarray, ...]
    budget: Optional[int] = None

    @property
    def d(self) -> int:
        return self.fock.system.d

    def matrix_bytes(self) -> int:
        """Bytes of the dense view: the d arrays, their headers and the views that fill them."""
        d, total = self.d, self.fock.total_dim
        return 16 * d * total * total + 256 * d + 1024

    @cached_property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """The d dense total × total shift matrices."""
        fock, d, total = self.fock, self.d, self.fock.total_dim
        check_budget(self.matrix_bytes(), self.budget, "shift matrices")
        mats = [np.zeros((total, total), dtype=complex) for _ in range(d)]
        for n in range(1, fock.depth + 1):
            for m, b in zip(mats, self.blocks[n]):
                m[fock.level_slice(n), fock.level_slice(n - 1)] = b
        return tuple(mats)

    @cached_property
    def _sums(self) -> list:
        """A_1, A_2, ... as level blocks, filled by `_word_sums` as they are asked for."""
        return []

    @property
    def row_norm(self) -> float:
        """||[S_1 ... S_d]|| = ||Σ_i S_i S_i†||^{1/2}, the largest over the level blocks of A_1."""
        return max(linalg.opnorm(a) for a in _word_sums(self, 1)) ** 0.5


def build_fock(system: SubproductSystem, depth: Optional[int] = None) -> TruncatedFock:
    depth = system.depth if depth is None else depth
    if not 1 <= depth <= system.depth:
        raise ValueError("depth must be between 1 and the system depth")
    offsets = [0]
    for n in range(depth + 1):
        offsets.append(offsets[-1] + system.dim(n))
    return TruncatedFock(system, depth, tuple(offsets))


def build_shifts(fock: TruncatedFock, budget: Optional[int] = None) -> ShiftSet:
    """The shift tuple from the letter blocks B_{n,i} = F_n[i-th block]† F_{n-1}.

    `budget` bounds the letter blocks here and the dense view later.
    """
    system = fock.system
    check_budget(system.letter_block_bytes(), budget, "letter blocks")
    return ShiftSet(fock, system.letter_blocks[:fock.depth + 1], budget)


def _word_sums(shifts: ShiftSet, k: int) -> list[np.ndarray]:
    """Level blocks of A_k = sum_{|w|=k} S^w S^{w†}, cached on the shift set.

    A_k is block-diagonal: A_k[0] = 0, A_1[n+1] = sum_i B_{n+1,i} B_{n+1,i}† and
    A_k[n+1] = sum_i B_{n+1,i} A_{k-1}[n] B_{n+1,i}†, so each A_k is one step on
    the cached A_{k-1}, and a defect of every order is computed once per tuple.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sums = shifts._sums
    adj = [b.conj().transpose(0, 2, 1) for b in shifts.blocks[1:]] if len(sums) < k else []
    while len(sums) < k:
        if sums:
            level = [(b @ a @ bh).sum(axis=0) for a, b, bh in zip(sums[-1], shifts.blocks[1:], adj)]
        else:
            level = [(b @ bh).sum(axis=0) for b, bh in zip(shifts.blocks[1:], adj)]
        sums.append([np.zeros((1, 1), dtype=complex)] + level)
    return sums[k - 1]


def _defect_blocks(shifts: ShiftSet, k: int) -> list[np.ndarray]:
    """Level blocks of I - sum_{|w|=k} S^w S^{w†}."""
    return [np.eye(len(a)) - a for a in _word_sums(shifts, k)]


def defect_projection(shifts: ShiftSet, k: int) -> np.ndarray:
    """I - sum_{|w|=k} S^w S^{w*} as a dense block-diagonal matrix.

    Valid (equal to the projection onto levels < k) on levels <= depth - k.
    """
    fock = shifts.fock
    out = np.zeros((fock.total_dim, fock.total_dim), dtype=complex)
    for n, block in enumerate(_defect_blocks(shifts, k)):
        out[fock.level_slice(n), fock.level_slice(n)] = block
    return out


def defect_residual(shifts: ShiftSet, k: int) -> float:
    """||D_k - P_{<k}|| on the window of levels 0..depth-k, D_k the k-defect.

    Both are block-diagonal, so this is the largest level-block norm.
    """
    blocks = _defect_blocks(shifts, k)[:max(shifts.fock.depth - k, 0) + 1]
    return max(linalg.opnorm(b - np.eye(len(b)) * (n < k)) for n, b in enumerate(blocks))


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
    # p(S)Ω from the vacuum outward: x holds, for each prefix of the words,
    # the sum over their suffixes s of c_{prefix·s} S^s Ω, at level |s|; the
    # innermost letter is the last, so each step contracts one letter with
    # the blocks B_{m+1,i} into level m+1
    x = pvec.reshape(-1, 1)
    for b in shifts.blocks[1:n + 1]:
        d, r_next, r = b.shape
        x = x.reshape(x.shape[0] // d, d * r) @ b.transpose(0, 2, 1).reshape(d * r, r_next)
    residual = float(np.linalg.norm(x))
    return {
        "degree": n,
        "in_ideal": projected_norm <= tol,
        "projected_norm": projected_norm,
        "residual": residual,
        "agreement": abs(projected_norm - residual),
        "tol": tol,
    }


def _follower_sum(up: tuple, followers: list, n: int) -> np.ndarray:
    """sum_a S^a S^{a†} on level n >= |a|.

    S^a from level n-|a| to level n is B_{n,a_1} ... B_{n-|a|+1,a_|a|}.
    """
    dim = up[n].shape[2]
    acc = np.zeros((dim, dim), dtype=complex)
    for a in followers:
        c = up[n - 1][a[0] - 1] if a else np.eye(dim)
        for j, letter in enumerate(a[1:], start=2):
            c = c @ up[n - j][letter - 1]
        acc += c @ c.conj().T
    return acc


def subshift_relations(shifts: ShiftSet, tol: float = DEFECT_TOL) -> dict:
    """Structural relations of a subshift shift tuple, with truncation windows.

    * orthogonality: S_i^† S_j = 0 for i != j;
    * range identity: S_i^† S_i agrees with the sum of S^a S^{a†} over legal
      k-step follower words a of the letter i, up to a projection supported
      on levels < k (its rank is the number of short legal words that i can
      precede);
    * completeness: I - sum_i S_i S_i^† is the vacuum projection on levels
      <= depth-1.

    Every operator here is block-diagonal, so each relation is checked level
    by level: norms are the largest block norm and ranks sum over blocks.
    """
    fock = shifts.fock
    system = fock.system
    if system.kind != "subshift":
        raise ValueError("relations are defined for subshift systems")
    spec = system.provenance["spec"]
    d, n_depth = system.d, fock.depth
    k = spec.step
    up = shifts.blocks[1:]  # up[n][i]: S_{i+1} from level n to level n+1

    ortho = 0.0
    for b in up:
        for i in range(d):
            for j in range(d):
                if i != j:
                    ortho = max(ortho, linalg.opnorm(b[i].conj().T @ b[j]))

    per_letter = []
    top = max(n_depth - k - 1, 0)  # the window is levels 0..top
    for i in range(1, d + 1):
        followers = spec.followers(i, k)
        rank, outside = 0, 0.0
        for n in range(top + 1):
            b = up[n][i - 1]
            diff = b.conj().T @ b
            if n >= k:
                diff -= _follower_sum(up, followers, n)
            sing = np.linalg.svd(diff, compute_uv=False) if diff.size else np.zeros(1)
            rank += int(np.sum(sing > tol))
            if n >= k:  # levels below k carry the expected projection
                outside = max(outside, float(sing.max()))
        visible_levels = min(k, max(n_depth - k, 0))
        expected_rank = sum(
            1
            for m in range(visible_levels)
            for w in spec.legal_words(m)
            if spec.is_legal((i,) + w)
        )
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

    completeness = defect_residual(shifts, 1)

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
    """Write shift matrices and the level-offset table as JSON files.

    One estimate is checked against the shifts' budget before anything is
    written: the dense view and the JSON encoding of one matrix (the files are
    written one at a time).
    """
    from pathlib import Path

    from spsys import formats

    total = shifts.fock.total_dim
    check_budget(shifts.matrix_bytes() + formats.encoding_bytes([total * total]),
                 shifts.budget, "shift matrices and their JSON encoding")
    mats = shifts.matrices
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for i, s in enumerate(mats, start=1):
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
