"""Truncated Fock spaces and shift tuples for a subproduct system.

The Fock space keeps every level 0..N of a depth-N system in fiber
coordinates, so the ambient dimension is the sum of the fiber dimensions,
not d^N. Shifts act block-superdiagonally: S_i sends level n to level n+1
through the letter block B_{n+1,i} (shape r_{n+1} × r_n), and the outflow
of the top level is dropped. Products of at most N shifts applied to the
vacuum are therefore exact.

A shift tuple is held as its level maps (`subproduct._split`): word indices
on a coordinate system, Z_n† on a core chain. S_i†S_j, the follower sums
S^a S^{a†} and the defect recursion are block-diagonal, so every check here
runs level by level, on word indices exactly, as 0/1 diagonals held as
vectors. Dense letter blocks and total × total matrices are views built on
demand, for export and for operator norms that need them, in the system's
dtype: float64 on word indices and real relations, else complex128.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from spsys import linalg, ncpoly
from spsys.linalg import check_budget
from spsys.ncpoly import NCPoly
from spsys.subproduct import SubproductSystem, _rows, _split, _split_bytes

DEFECT_TOL = 1e-10


@dataclass(frozen=True)
class TruncatedFock:
    """Every level 0..system.depth of a system, concatenated in fiber coordinates."""

    system: SubproductSystem
    offsets: tuple[int, ...]  # offsets[n] = start of level n; last = total_dim

    @property
    def depth(self) -> int:
        return self.system.depth

    @property
    def total_dim(self) -> int:
        return self.offsets[-1]

    def level_slice(self, n: int) -> slice:
        return slice(self.offsets[n], self.offsets[n + 1])

    def level_dims(self) -> list[int]:
        return self.system.dims()

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.total_dim, dtype=self.system.dtype)
        v[0] = 1.0
        return v

    def window(self, top_level: int) -> slice:
        """Index range of levels 0..top_level."""
        return slice(0, self.offsets[min(top_level, self.depth) + 1])


@dataclass(frozen=True)
class ShiftSet:
    """The d shifts on a truncated Fock space, held as their level maps.

    maps[n] = `_split(system, n, False)[0]` (n = 1..depth; maps[0] is None)
    acts on the rows (letter i, word k of level n-1) of C^d ⊗ X(n-1), so S_i
    from level n-1 to level n is the letter block B_{n,i}: on word indices the
    1s at (j, k) with maps[n][j] = (i-1)·r_{n-1} + k, on a core chain the
    letter-i columns of Z_n†. `matrices` checks the budget when it builds.
    """

    fock: TruncatedFock
    maps: tuple

    @property
    def d(self) -> int:
        return self.fock.system.d

    @property
    def dtype(self) -> np.dtype:
        return self.fock.system.dtype

    def _letters(self, n: int):
        """Level n's letter blocks: on a core chain a d × r_n × r_{n-1} view of
        Z_n†; on word indices the pair (letter, previous word) of each word."""
        op, r_prev = self.maps[n], self.fock.offsets[n] - self.fock.offsets[n - 1]
        if op.dtype.kind == "i":
            return np.divmod(op, r_prev)
        return op.reshape(op.shape[0], self.d, r_prev).transpose(1, 0, 2)

    def _fill(self, out: np.ndarray, n: int, rows: slice, cols: slice) -> None:
        """Write level n's letter blocks into out[:, rows, cols]: the core view,
        or the 1s of the word indices."""
        letters = self._letters(n)
        if isinstance(letters, tuple):
            letter, prev = letters
            words = rows.start + np.arange(letter.size)
            np.put(out, np.ravel_multi_index((letter, words, cols.start + prev), out.shape), 1.0)
        else:
            out[:, rows, cols] = letters

    def blocks(self, n: int) -> np.ndarray:
        """The dense letter blocks B_{n,i} of level n, d × r_n × r_{n-1}."""
        dims = self.fock.level_dims()
        out = np.zeros((self.d, dims[n], dims[n - 1]), dtype=self.dtype)
        self._fill(out, n, slice(0, dims[n]), slice(0, dims[n - 1]))
        return out

    def matrix_bytes(self) -> int:
        """Bytes of the dense view: the d arrays, their headers and the views
        that fill them; on word indices also a level's positions of the 1s."""
        d, total = self.d, self.fock.total_dim
        scatter = 48 * max(self.fock.level_dims()) + 1024 if self.fock.system.route == "coordinate" else 0
        return self.dtype.itemsize * d * total * total + 256 * d + 1024 + scatter

    @cached_property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """The d dense total × total shift matrices, filled straight from the maps."""
        fock, d, total = self.fock, self.d, self.fock.total_dim
        check_budget(self.matrix_bytes(), "shift matrices")
        mats = np.zeros((d, total, total), dtype=self.dtype)
        for n in range(1, fock.depth + 1):
            self._fill(mats, n, fock.level_slice(n), fock.level_slice(n - 1))
        return tuple(mats)

    @cached_property
    def _sums(self) -> list:
        """A_1, A_2, ... as level blocks, filled by `_word_sums` as they are asked for."""
        return []

    @property
    def row_norm(self) -> float:
        """||[S_1 ... S_d]|| = ||Σ_i S_i S_i†||^{1/2}, the largest over the level blocks of A_1."""
        return max(_block_norm(a) for a in _word_sums(self, 1)) ** 0.5


def build_fock(system: SubproductSystem) -> TruncatedFock:
    """The Fock space of every level of the system; to truncate lower, build
    the system at the lower depth."""
    return TruncatedFock(system, tuple(accumulate(system.dims(), initial=0)))


def build_shifts(fock: TruncatedFock) -> ShiftSet:
    """The shift tuple from the level maps of `subproduct._split`, after a
    budget check of the maps."""
    system = fock.system
    check_budget(_split_bytes(system), "level maps")
    maps = [_split(system, n, False)[0] for n in range(1, fock.depth + 1)]
    return ShiftSet(fock, (None, *maps))


def _word_sums(shifts: ShiftSet, k: int) -> list[np.ndarray]:
    """Level blocks of A_k = sum_{|w|=k} S^w S^{w†}, cached on the shift set.

    A_k[0] = 0 and A_k[n] = Z_n† (I_d ⊗ A_{k-1}[n-1]) Z_n with A_0 = I, one step
    on the cached A_{k-1}. On word indices the blocks are 0/1 diagonals, held as
    vectors: A_k[n] is A_{k-1}[n-1] at the previous words of level n.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sums = shifts._sums
    if len(sums) >= k:
        return sums[k - 1]
    letters = [shifts._letters(n) for n in range(1, shifts.fock.depth + 1)]
    if shifts.fock.system.route == "coordinate":
        below = sums[-1] if sums else [np.ones(r) for r in shifts.fock.level_dims()]
        while len(sums) < k:
            below = [np.zeros(1)] + [a[prev] for a, (_, prev) in zip(below, letters)]
            sums.append(below)
        return sums[k - 1]
    adj = [b.conj().transpose(0, 2, 1) for b in letters]
    while len(sums) < k:
        if sums:
            level = [(b @ a @ bh).sum(axis=0) for a, b, bh in zip(sums[-1], letters, adj)]
        else:
            level = [(b @ bh).sum(axis=0) for b, bh in zip(letters, adj)]
        sums.append([np.zeros((1, 1), dtype=shifts.dtype)] + level)
    return sums[k - 1]


def _eye(block: np.ndarray) -> np.ndarray:
    """The identity in the form of `block`, a vector for a diagonal held as one."""
    return np.ones(len(block)) if block.ndim == 1 else np.eye(len(block))


def _block_norm(block: np.ndarray) -> float:
    """Operator norm of a level block; a diagonal held as a vector gives its largest entry."""
    if block.ndim == 1:
        return float(np.abs(block).max(initial=0.0))
    return linalg.opnorm(block)


def _defect_blocks(shifts: ShiftSet, k: int) -> list[np.ndarray]:
    """Level blocks of I - sum_{|w|=k} S^w S^{w†}."""
    return [_eye(a) - a for a in _word_sums(shifts, k)]


def defect_projection(shifts: ShiftSet, k: int) -> np.ndarray:
    """I - sum_{|w|=k} S^w S^{w*} as a dense block-diagonal matrix.

    Valid (equal to the projection onto levels < k) on levels <= depth - k.
    """
    fock = shifts.fock
    out = np.zeros((fock.total_dim, fock.total_dim), dtype=shifts.dtype)
    for n, block in enumerate(_defect_blocks(shifts, k)):
        out[fock.level_slice(n), fock.level_slice(n)] = np.diag(block) if block.ndim == 1 else block
    return out


def defect_residual(shifts: ShiftSet, k: int) -> float:
    """||D_k - P_{<k}|| on the window of levels 0..depth-k, D_k the k-defect.

    Both are block-diagonal, so this is the largest level-block norm.
    """
    blocks = _defect_blocks(shifts, k)[:max(shifts.fock.depth - k, 0) + 1]
    return max(_block_norm(b - _eye(b) * (n < k)) for n, b in enumerate(blocks))


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
    # innermost letter is the last, so each step takes the columns (letter,
    # word of level m-1) of the prefixes one letter shorter through maps[m]
    x = pvec.reshape(-1, 1)
    for m in range(1, n + 1):
        x = _rows(shifts.maps[m], x.reshape(x.shape[0] // shifts.d, -1).T).T
    residual = float(np.linalg.norm(x))
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

    On word indices each operator is a 0/1 diagonal per level: S_i†S_i on
    level n marks the previous words of the letter-i words of level n+1, and
    the follower sum the words whose first k letters follow i. Ranks are counts
    and norms largest entries. S_i†S_j = 0 for i != j exactly, since each row
    of a level map is one (letter, previous word) pair.
    """
    fock, system = shifts.fock, shifts.fock.system
    if system.kind != "subshift":
        raise ValueError("relations are defined for subshift systems")
    if system.route != "coordinate":
        raise ValueError("subshift relations need a system of word indices")
    spec = system.provenance["spec"]
    d, n_depth, dims = system.d, fock.depth, fock.level_dims()
    k = spec.step

    per_letter = []
    top = max(n_depth - k - 1, 0)  # the window is levels 0..top
    ups = [shifts._letters(n + 1) for n in range(top + 1)]
    for i in range(1, d + 1):
        followers = spec.followers(i, k)
        heads = [ncpoly.word_index(a, d) for a in followers]
        rank, outside = 0, 0.0
        for n, (letter, prev) in enumerate(ups):
            diff = np.zeros(dims[n])
            diff[prev[letter == i - 1]] = 1.0  # S_i†S_i
            if n >= k:
                diff -= np.isin(system.fiber(n).index // d ** (n - k), heads)
                outside = max(outside, float(np.abs(diff).max(initial=0.0)))
            rank += int(np.count_nonzero(np.abs(diff) > tol))
        visible_levels = min(k, max(n_depth - k, 0))
        expected_rank = sum(1 for m in range(visible_levels) for w in spec.legal_words(m)
                            if spec.is_legal((i,) + w))
        per_letter.append({"letter": i, "followers": len(followers), "rank": rank,
                           "expected_rank": expected_rank, "support_residual": outside,
                           "ok": rank == expected_rank and outside <= tol})
    completeness = defect_residual(shifts, 1)
    return {"orthogonality": 0.0, "per_letter": per_letter,
            "completeness_residual": completeness, "step": k,
            "ok": completeness <= tol and all(e["ok"] for e in per_letter), "tol": tol}


def export_shifts(shifts: ShiftSet, out_dir) -> list:
    """Write shift matrices and the level-offset table as JSON files.

    One estimate is checked against the budget before anything is
    written: the dense view and the JSON encoding of one matrix (the files are
    written one at a time).
    """
    from pathlib import Path

    from spsys import formats

    total = shifts.fock.total_dim
    check_budget(shifts.matrix_bytes() + formats.encoding_bytes([total * total]),
                 "shift matrices and their JSON encoding")
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


def shift_files_residual(shifts: ShiftSet, paths) -> float:
    """The largest entry by which the files `export_shifts` wrote for S_1..S_d
    (`paths`, in letter order) differ from the level maps.

    Each file is decoded and the letter block B_{n,i} is subtracted from its
    block from level n-1 to level n; the residual is the largest entry left,
    inside the blocks or outside them. The encoding is exact, so anything but 0
    is a file that does not hold its shift. One estimate is checked first: the
    dense view `export_shifts` keeps, next to decoding one file, which takes no
    more than encoding it.
    """
    from spsys import formats

    fk, total = shifts.fock, shifts.fock.total_dim
    check_budget(shifts.matrix_bytes() + formats.encoding_bytes([total * total]),
                 "shift files read back")
    worst = 0.0
    for i, path in enumerate(paths):
        s = formats.decode_matrix(formats.load_json(path))
        if s.shape != (total, total):
            raise ValueError(f"{path} holds a {s.shape[0]} x {s.shape[1]} matrix, "
                             f"not {total} x {total}")
        for n in range(1, fk.depth + 1):
            s[fk.level_slice(n), fk.level_slice(n - 1)] -= shifts.blocks(n)[i]
        worst = max(worst, float(np.abs(s).max(initial=0.0)))
    return worst
