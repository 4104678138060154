"""Representations of a subproduct system by row contractions, and their models.

A d-tuple T on C^h represents the system X when every polynomial vanishing
on X annihilates T. The dilation-side machinery lives here:

* Poisson kernels K: h -> (truncated Fock) ⊗ h and the compression identity
  K† (S^a S^{b†} ⊗ I) K ≈ r^{|a|+|b|} T^a T^{b†};
* the intertwining of T with the shift tuple after rescaling past the row
  norm (the finite-depth form of the co-model);
* a two-depth von Neumann inequality check with a stabilization gap;
* the largest subspace on which a tuple is an X-representation (maximal
  X-piece), whose complement is a closure of the ranges g(T) in C^h;
* the discrete CP semigroup a -> T̃_n (I ⊗ a) T̃_n† induced by a
  representation.

Relation checks and pieces read the generators every constructor records.
Tildes and Poisson kernels come from one recursion per level,
`subproduct._level_recursion` on the letters T_i† (the core axiom check
runs it on the system's own cores): C^d ⊗ X(n-1) is split by the stacked
core Z_n (`subproduct._split`), read off the word indices of a coordinate
system or the cores of a core chain. Poisson transforms and the
model check lower the kernel through the adjoints of the same level maps,
which the shift tuple holds. Only a generator's value g(T) runs over words,
those of g's terms: a generator derived from prescribed `fibers` frames may
have up to d^n of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from spsys import linalg
from spsys.linalg import check_budget
from spsys.ncpoly import NCPoly
from spsys.subproduct import (SubproductSystem, _cols, _level_recursion, _recursion_bytes,
                              _split_bytes)
from spsys import fock as fock_mod

# The annihilation residuals, and the piece's rank decisions and fixed point:
# one default, so that `is_representation` passes exactly when the piece is C^h.
REP_TOL = 1e-9
TAIL_TOL = 1e-9  # a residual above its tail bound
VN_TOL = 1e-8  # the von Neumann comparison
# A row norm within this of 1 counts as 1, on both sides of the boundary: above
# it a tuple is not a row contraction, below it r = 1 needs a strict one.
ROW_NORM_SLACK = 1e-10


@dataclass(frozen=True)
class RepTuple:
    """A d-tuple of operators on C^h."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("empty tuple")
        h = self.matrices[0].shape[0]
        mats = []
        for m in self.matrices:
            m = np.asarray(m, dtype=complex)
            if m.shape != (h, h):
                raise ValueError("matrices must be square and of equal size")
            if not np.all(np.isfinite(m)):
                raise ValueError("matrix entries must be finite")
            mats.append(m)
        object.__setattr__(self, "matrices", tuple(mats))

    @property
    def d(self) -> int:
        return len(self.matrices)

    @property
    def h(self) -> int:
        return self.matrices[0].shape[0]

    @cached_property
    def row_norm(self) -> float:
        return linalg.opnorm(np.hstack(self.matrices))

    def scaled(self, factor: float) -> "RepTuple":
        return RepTuple(tuple(factor * m for m in self.matrices))

    @property
    def adjoints(self) -> np.ndarray:
        """T_i† stacked as d × h × h, the letters of every level of the tilde
        recursion; a new array on each call, so the tuple holds no copy."""
        return np.stack([m.conj().T for m in self.matrices])

    def word(self, letters) -> np.ndarray:
        out = np.eye(self.h, dtype=complex)
        for a in letters:
            out = out @ self.matrices[a - 1]
        return out


# A numpy array's header with its shape and strides, or a tuple or frame of
# the recursion, in tracemalloc's count of CPython 3.10/3.11 and numpy
_HEADER_BYTES = 128


def _header_bytes(system: SubproductSystem) -> int:
    """Bytes of the small objects a recursion-backed call holds next to its
    arrays: one per level, and 64 for a step and the call's own."""
    return _HEADER_BYTES * (system.depth + 65)


def rep_tildes(system: SubproductSystem, rep: RepTuple) -> list[np.ndarray]:
    """T̃_n: X(n) ⊗ C^h -> C^h in fiber coordinates, for n = 0..system.depth.

    T̃_n† ((r_n·h) × h, rows (word, v)) is A_n of `_level_recursion` with the
    letters T_i† at every level: T̃_n = U_n† (Z_n ⊗ I_h), with U_n† = [T_i T̃_{n-1}]_i,
    so the cost follows the fiber dimensions. Every tilde is held; one estimate,
    of the tildes next to a recursion step, is checked against the budget
    before any is made.
    """
    if rep.d != system.d:
        raise ValueError("tuple size does not match the system")
    h = rep.h
    # the tildes; a recursion step, or the conjugate copy behind a new tilde;
    # a few h × h blocks and the headers
    words = h * h * sum(system.dims()) + 8 * h * h
    check_budget(16 * words + _recursion_bytes(system, [h] * (system.depth + 1), False, 16)
                 + _header_bytes(system), f"tildes up to level {system.depth}")
    return [np.ascontiguousarray(a.conj().T)
            for a, _ in _level_recursion(system, [rep.adjoints] * system.depth)]


def _gens(system: SubproductSystem) -> list[NCPoly]:
    """The recorded generators of degree <= depth. Every constructor records
    its generators; a system made by hand without them is refused."""
    ideal = system.provenance.get("gens")
    if ideal is None:
        raise ValueError("the system records no generators; build it with a constructor "
                         "of `subproduct`, such as maximal_with_fibers for prescribed frames")
    return [g for g in ideal.gens if g.degree() <= system.depth]


def _generator_values(system: SubproductSystem, rep: RepTuple, keep: bool = False,
                      after: int | None = None, what: str | None = None):
    """(i, deg g, g(T)) for the generators g = gens[i] of degree <= depth (`_gens`),
    a group of one degree and realness at a time (`NCPoly.values_on_tuple`), made
    as the caller takes them, after one budget check: a group's values next to its
    word products, index and headers (`NCPoly.values_held`), and then next to
    `after` complex words of the caller's (by default an operator norm's copies of
    one value); with `keep`, the caller holds every value it has taken."""
    h, gens = rep.h, _gens(system)
    after = 3 * h * h if after is None else after
    groups: dict[tuple[int, bool], list[int]] = {}
    for i, g in enumerate(gens):
        groups.setdefault((g.degree(), g.is_real()), []).append(i)
    words, index, taken = after, 2048, 0
    for ix in groups.values():
        products, index_bytes = NCPoly.values_held([gens[i] for i in ix])
        taken = (taken if keep else 0) + len(ix)
        words = max(words, taken * h * h + max(products * h * h, after))
        index = max(index, index_bytes)
    check_budget(16 * words + index + 128 * (len(gens) + system.depth),
                 what or f"generator values on {h} x {h}")
    return ((i, n, v) for (n, _), ix in groups.items()
            for i, v in zip(ix, NCPoly.values_on_tuple([gens[i] for i in ix], rep.matrices)))


def is_representation(system: SubproductSystem, rep: RepTuple,
                      tol: float = REP_TOL) -> dict:
    """Residuals of the annihilation conditions, level by level.

    The level-n residual is the largest ||g(T)|| over the generators of degree
    <= n that the system's constructor recorded in ``provenance["gens"]`` (for
    `fibers` systems, those derived from the prescribed levels), after one
    budget check. Annihilating the generators annihilates the whole graded
    ideal, so the tuple represents X exactly when every residual is 0. The
    report's `route` names that one route, "generators".
    """
    if rep.d != system.d:
        raise ValueError("tuple size does not match the system")
    norms = [(k, linalg.opnorm(v)) for _, k, v in _generator_values(system, rep)]
    residuals = [max((r for k, r in norms if k <= n), default=0.0)
                 for n in range(1, system.depth + 1)]
    return {
        "residuals": residuals,
        "max_residual": max(residuals, default=0.0),
        "ok": all(r <= tol for r in residuals),
        "route": "generators",
        "tol": tol,
    }


class PoissonKernel:
    """K_r(T): C^h -> (truncated Fock of X) ⊗ C^h.

    The level-n block is (I ⊗ Δ(rT)^{1/2}) (rT)~_n† with
    Δ(W) = I - sum_i W_i W_i†. For a representation with row norm below 1/r
    this is an isometry up to a geometric tail in the system's depth. At
    r = 1 the row norm must lie below 1 - ROW_NORM_SLACK, since at row norm 1
    the tail does not shrink.
    """

    def __init__(self, system: SubproductSystem, rep: RepTuple, r: float):
        if rep.d != system.d:
            raise ValueError("tuple size does not match the system")
        if not 0 < r <= 1:
            raise ValueError("need 0 < r <= 1")
        if rep.row_norm > 1 + ROW_NORM_SLACK:
            raise ValueError(f"row norm {rep.row_norm:.6f} exceeds 1")
        if r == 1 and rep.row_norm >= 1 - ROW_NORM_SLACK:
            raise ValueError("r = 1 requires row norm strictly below 1")
        self.depth = system.depth
        h = rep.h
        hh, rows = h * h, sum(system.dims())
        # the kernel matrix, next to a step of the tilde recursion or to the
        # conjugate copy isometry_defect takes; a few h × h blocks and the headers
        step = max(_recursion_bytes(system, [h] * (self.depth + 1), False, 16),
                   16 * (rows * hh + hh))
        check_budget(16 * (rows * hh + 8 * hh) + step + _header_bytes(system),
                     f"Poisson kernel up to level {self.depth}")
        self.system = system
        self.rep = rep
        self.r = float(r)
        scaled = rep.scaled(self.r)
        self.row_norm_w = min(scaled.row_norm, 1 - 1e-15)
        delta = np.eye(h, dtype=complex)
        for w in scaled.matrices:
            delta -= w @ w.conj().T
        self.delta_sqrt = linalg.psd_sqrt(delta)
        # level n is (I_{r_n} ⊗ Δ^{1/2}) T̃_n†, written in place level by level
        self.matrix = np.empty((rows * h, h), dtype=complex)
        start = 0
        for adj, _ in _level_recursion(system, [scaled.adjoints] * self.depth):
            block = self.matrix[start:start + adj.shape[0]]
            np.matmul(self.delta_sqrt, adj.reshape(-1, h, h), out=block.reshape(-1, h, h))
            start += adj.shape[0]
        self._shifts = None

    @property
    def h(self) -> int:
        return self.rep.h

    def shifts(self) -> fock_mod.ShiftSet:
        if self._shifts is None:
            self._shifts = fock_mod.build_shifts(fock_mod.build_fock(self.system))
        return self._shifts

    def levels(self) -> list[np.ndarray]:
        """The level blocks K_n as views of shape (r_n, h·h): rows in level n, columns (h, h)."""
        cuts = np.cumsum(self.system.dims()[:-1])
        return np.split(self.matrix.reshape(-1, self.h * self.h), cuts)

    def isometry_defect(self) -> float:
        k = self.matrix
        return linalg.opnorm(k.conj().T @ k - np.eye(self.h))

    def tail_bound(self) -> float:
        rho = self.row_norm_w
        return rho ** (2 * (self.depth + 1)) / (1 - rho**2)


def _lower(shifts: fock_mod.ShiftSet, levels: list, word) -> list:
    """(S^{w†} ⊗ I) on level blocks: S_i† takes level m+1 to level m as the
    letter-i rows of `_cols` of the level map, rows (letter, word of level m).

    S^{w†} = S_{w_k}† ... S_{w_1}† applies S_{w_1}† first; each letter drops
    the top level.
    """
    for a in word:
        levels = [_cols(shifts.maps[m + 1], x, shifts.d * len(y))[(a - 1) * len(y):a * len(y)]
                  for m, (y, x) in enumerate(zip(levels, levels[1:]))]
    return levels


def poisson_transform(kernel: PoissonKernel, alpha, beta) -> dict:
    """Compress S^a S^{b†} ⊗ I through the kernel and compare with the tuple.

    For an X-representation the result is r^{|a|+|b|} T^a T^{b†} up to a
    tail controlled by the depth left above max(|a|, |b|).
    """
    alpha, beta = tuple(alpha), tuple(beta)
    n_depth = kernel.depth
    if max(len(alpha), len(beta)) > n_depth:
        raise ValueError("word longer than the truncation depth")
    # K† (S^a S^{b†} ⊗ I) K = ((S^{a†} ⊗ I) K)† (S^{b†} ⊗ I) K, level by level
    shifts, levels, h = kernel.shifts(), kernel.levels(), kernel.h
    value = sum(x.reshape(-1, h).conj().T @ y.reshape(-1, h) for x, y in zip(
        _lower(shifts, levels, alpha), _lower(shifts, levels, beta)))
    s = len(alpha) + len(beta)
    t = kernel.rep
    target = kernel.r**s * (t.word(alpha) @ t.word(beta).conj().T)
    residual = linalg.opnorm(value - target)
    rho = kernel.row_norm_w
    m = n_depth - max(len(alpha), len(beta))
    bound = kernel.r**s * rho ** (2 * (m + 1)) / (1 - rho**2)
    return {
        "alpha": alpha,
        "beta": beta,
        "value": value,
        "target": target,
        "residual": residual,
        "bound": bound,
        "ok": residual <= bound + TAIL_TOL,
    }


def model_intertwining_check(system: SubproductSystem, rep: RepTuple, r: float,
                             tol: float = TAIL_TOL) -> dict:
    """Check that T is a piece of the shift: (S_i ⊗ I)† K = K W_i† for W = T/r.

    Requires r strictly above the row norm of T, so that W = T/r has row
    norm below one; an r within a relative ROW_NORM_SLACK of the row norm
    counts as equal to it. Exact up to the top truncation level, whose size
    is bounded by row_norm(W)^{depth+1}.
    """
    w = rep.scaled(1.0 / r) if r > 0 else None
    if w is None or w.row_norm >= 1 - ROW_NORM_SLACK:
        raise ValueError(
            f"need r > row norm ({rep.row_norm:.6f}) for the rescaled model"
        )
    kernel = PoissonKernel(system, w, 1.0)
    n_depth = kernel.depth
    shifts, levels, k = kernel.shifts(), kernel.levels(), kernel.matrix
    residuals = []
    for i in range(rep.d):
        diff = k @ w.matrices[i].conj().T
        # (S_i† ⊗ I) K on levels 0..depth-1; nothing comes down into the top level
        lhs = np.vstack(_lower(shifts, levels, (i + 1,))).reshape(-1, kernel.h)
        diff[:lhs.shape[0]] -= lhs
        residuals.append(linalg.opnorm(diff))
    rho = kernel.row_norm_w
    bound = rho ** (n_depth + 1)
    return {
        "residuals": residuals,
        "bound": bound,
        "isometry_defect": kernel.isometry_defect(),
        "isometry_bound": kernel.tail_bound(),
        "ok": all(res <= bound + tol for res in residuals),
        "tol": tol,
    }


def vn_inequality_check(system: SubproductSystem, rep: RepTuple,
                        p: NCPoly, q: NCPoly) -> dict:
    """Compare ||p(T) q(T)†|| against the same expression in the shifts.

    The truncated shift norm increases with the depth toward its limit, so
    lhs <= rhs already certifies the inequality. When lhs lands above the
    truncated rhs the verdict depends on the stabilization gap (the change
    from one depth lower): well above it is a failure, within a few gaps of
    it the truncation is still moving and the comparison is inconclusive.
    This check needs the dense shifts, in the system's dtype (real relations
    and real coefficients of p and q keep p(S) q(S)† real): one estimate of
    everything it holds is checked against the budget before anything is
    allocated.
    """
    depth = system.depth
    if depth < 2:
        raise ValueError("need depth >= 2 for a stabilization gap")
    lhs = linalg.opnorm(
        p.eval_on_tuple(rep.matrices) @ q.eval_on_tuple(rep.matrices).conj().T
    )
    fk = fock_mod.build_fock(system)
    total = fk.total_dim
    # Held next to the d dense shifts: the level maps while the shifts are
    # filled; later p(S) while it is evaluated, with the word products and index
    # of `NCPoly.values_on_tuple`, then next to q(S) while it is (or p(S), q(S), a
    # conjugate and their product), then p(S) q(S)† next to the working set of
    # its operator norm, which covers its window's; and 16 KiB of headers and
    # small arrays.
    itemsize = np.result_type(system.dtype, float if p.is_real() and q.is_real()
                              else complex).itemsize
    (p_products, p_index), (q_products, q_index) = map(NCPoly.values_held, ([p], [q]))
    later = max(max(1 + p_products, 2 + q_products, 4) * itemsize * total**2
                + max(p_index, q_index),
                itemsize * total**2 + linalg.opnorm_bytes(total, total, itemsize))
    check_budget(system.dtype.itemsize * system.d * total**2 + max(_split_bytes(system), later)
                 + (16 << 10),
                 f"vN shift operators on {total} Fock dimensions")
    mats = fock_mod.build_shifts(fk).matrices
    op = p.eval_on_tuple(mats) @ q.eval_on_tuple(mats).conj().T
    # Depth - 1 is the window onto levels 0..depth-1: each S^a S^{b†} lowers
    # before it raises, so no term leaves the window and comes back into it.
    win = fk.window(depth - 1)
    rhs, rhs_prev = linalg.opnorm(op), linalg.opnorm(op[win, win])
    gap = abs(rhs - rhs_prev)
    margin = max(VN_TOL, 10.0 * gap)
    if lhs <= rhs + VN_TOL:
        verdict = "pass"
    elif lhs > rhs + margin:
        verdict = "fail"
    else:
        verdict = "inconclusive"
    return {
        "lhs": lhs,
        "rhs": rhs,
        "rhs_prev": rhs_prev,
        "gap": gap,
        "margin": margin,
        "verdict": verdict,
    }


def _grow(basis: np.ndarray, weights: np.ndarray, c: int, blocks, tol: float) -> int:
    """Append to the orthonormal basis[:, :c] the left singular vectors above `tol`
    of each block projected off it twice, their singular values to `weights`; the SVD
    is skipped when the Frobenius norm, which bounds them all, is at most `tol`."""
    for cands in blocks:
        if c == basis.shape[0]:
            break
        if c:
            q = basis[:, :c]
            cands = cands - q @ (q.conj().T @ cands)
            cands -= q @ (q.conj().T @ cands)
        if np.linalg.norm(cands) > tol:
            u, s, _ = np.linalg.svd(cands, full_matrices=False)
            r = int(np.sum(s > tol))
            basis[:, c:c + r], weights[c:c + r] = u[:, :r], s[:r]
            c += r
    return c


def _defect(frame: np.ndarray, perp: np.ndarray, blocks, mats) -> float:
    """||Q† [G | T_1 Q⊥ | ... | T_d Q⊥]||, G the blocks side by side, from the m × m
    Gram summed part by part (`linalg.gram_norm`)."""
    fh = frame.conj().T
    gram = np.zeros((fh.shape[0], fh.shape[0]), dtype=complex)
    for part in chain(blocks, (t @ perp for t in mats)):
        x = fh @ part
        gram += x @ x.conj().T
    return linalg.gram_norm(gram)


def maximal_piece(system: SubproductSystem, rep: RepTuple,
                  tol: float = REP_TOL) -> dict:
    """Largest subspace V on which the tuple compresses to an X-representation.

    Step j keeps the v in V_{j-1} with (I - P_n ⊗ P_V) W_n† v = 0 for n <= depth.
    X(n)^⊥ is spanned by the placements a·g·b of the generators, and
    W_n (a·g·b ⊗ u) = T^a g(T) T^b u, so this is a closure in C^h, at a cost
    that does not follow the fiber dimensions: V_1^⊥ = Σ_g Σ_{|a| <= depth - deg g}
    T^a range g(T), in rounds from the largest left length down, each adding the
    T_i times the directions new in the round before and the g(T) of its left
    length; then V_{j+1}^⊥ = V_j^⊥ + Σ_{1 <= |w| <= depth} T^w V_j^⊥, in depth such rounds
    (the first of step 2 on all of V_1^⊥).
    Each block goes through `_grow`, which keeps the singular values above `tol`
    (the first step weighs the new directions by them), so the piece is C^h exactly
    when `is_representation` passes at `tol`. A step that adds nothing is the fixed
    point; V is the complement of the basis from one complete QR, and the residual
    the defect ||Q† [G | T_1 Q⊥ | ... | T_d Q⊥]|| of the conditions (`_defect`).
    """
    if rep.d != system.d:
        raise ValueError("tuple size does not match the system")
    h, hh, depth, mats = rep.h, rep.h ** 2, system.depth, rep.matrices
    k = len(_gens(system))  # blocks of G, in the generators' order
    # G next to a group of g(T) being made, and then next to the largest of: the
    # basis and a block with its projection or SVD factors; the complete QR; Q,
    # Q† and the defect's Gram, a part and its product. With no block, Q = I and
    # its frame check.
    after = (6 if k else 3) * hh + 512
    blocks = [(depth - deg, v) for _, deg, v in sorted(
        _generator_values(system, rep, True, after, f"piece constraints up to level {depth}"),
        key=lambda block: block[0])]
    basis = np.empty((h, h if blocks else 0), dtype=complex)
    weights = np.empty(basis.shape[1])
    c = start = 0  # basis[:, start:c] are the directions new in the last round
    for left in range(max((a for a, _ in blocks), default=-1), -1, -1):
        new = basis[:, start:c] * weights[start:c]
        c, start = _grow(basis, weights, c, chain((t @ new for t in mats),
                                                  (g for a, g in blocks if a == left)),
                         tol), c
    # step 2 starts from all of V_1^⊥ at unit weight: the weights may have
    # dropped T_i images of earlier rounds that count at unit weight
    iterations, start = 1, 0
    while 0 < c < h:
        iterations, grown = iterations + 1, c
        for _ in range(depth):
            new = basis[:, start:c]
            c, start = _grow(basis, weights, c, (t @ new for t in mats), tol), c
        if c == grown:
            break  # the fixed point
    q = np.linalg.qr(basis[:, :c], mode="complete")[0]
    del basis
    frame, perp = q[:, c:], q[:, :c]
    residual = _defect(frame, perp, [g for _, g in blocks], mats) if c < h and blocks else 0.0
    current = linalg.Subspace(h, frame, tol)
    return {"subspace": current, "dim": current.dim, "iterations": iterations,
            "residual": residual, "tol": tol}


class CPSemigroup:
    """The discrete semigroup Θ_n(a) = T̃_n (I ⊗ a) T̃_n† on B(C^h), with every
    T̃_n (h × r_n·h) held (`rep_tildes`)."""

    def __init__(self, system: SubproductSystem, rep: RepTuple):
        if rep.d != system.d:
            raise ValueError("tuple size does not match the system")
        self.system = system
        self.rep = rep
        self.depth = system.depth
        self.tildes = rep_tildes(system, rep)

    @property
    def h(self) -> int:
        return self.rep.h

    def theta(self, n: int, a: np.ndarray) -> np.ndarray:
        if not 0 <= n <= self.depth:
            raise ValueError("step out of range")
        a = np.asarray(a, dtype=complex)
        t = self.tildes[n]
        h = self.h
        return (t.reshape(h, -1, h) @ a).reshape(h, -1) @ t.conj().T

    def semigroup_residual(self, m: int, n: int, a: np.ndarray) -> float:
        """|| Θ_m(Θ_n(a)) - Θ_{m+n}(a) ||; small iff the tuple represents X."""
        if m + n > self.depth:
            raise ValueError("m + n exceeds the depth")
        composed = self.theta(m, self.theta(n, a))
        direct = self.theta(m + n, a)
        return linalg.opnorm(composed - direct)

    def choi(self, n: int) -> np.ndarray:
        """sum_ab E_ab ⊗ Θ_n(E_ab); positive semidefinite for a CP map.

        With T_w the h × h blocks of T̃_n, the entry ((a, i), (b, j)) is
        sum_w T_w[i, a] conj(T_w[j, b]): the Gram K^T conj(K) of the rows
        K[w, (a, i)] = T_w[i, a].
        """
        if not 0 <= n <= self.depth:
            raise ValueError("step out of range")
        h = self.h
        k = self.tildes[n].reshape(h, -1, h).transpose(1, 2, 0).reshape(-1, h * h)
        return k.T @ k.conj()

    def choi_min_eig(self, n: int) -> float:
        c = self.choi(n)
        w = np.linalg.eigvalsh((c + c.conj().T) / 2)
        return float(w[0]) if w.size else 0.0

    def unital_residual(self, n: int) -> float:
        return linalg.opnorm(self.theta(n, np.eye(self.h)) - np.eye(self.h))

