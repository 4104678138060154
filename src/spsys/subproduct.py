"""Standard subproduct systems over N at finite depth.

A system is a chain of fibers X(0)=C, X(1), ..., X(N) with X(n) a subspace
of (C^d)^{⊗n} such that X(m+n) sits inside X(m) ⊗ X(n) for all m, n. The
constructors here realize the four concrete sources of such chains:

* two-sided homogeneous ideals of the free algebra (complements of the
  graded components),
* subshifts (coordinate subspaces spanned by legal words),
* q-commutation relations x_i x_j = q_ij x_j x_i,
* a single quadratic relation in two variables,

plus the maximal completion of an explicitly prescribed finite chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from spsys import linalg
from spsys.linalg import (  # noqa: F401  (the budget names are re-exported)
    DEFAULT_BUDGET_BYTES, CoordinateSubspace, MemoryBudgetError, Subspace,
    check_budget,
)
from spsys import ncpoly
from spsys.ncpoly import IdealGens, NCPoly

INCLUSION_TOL = 1e-9
ADMISSIBLE_TOL = 1e-12


@dataclass(frozen=True)
class SubshiftSpec:
    """A subshift of finite type given by its forbidden words.

    Forbidden words are nonempty and normalized so that none contains
    another as a (contiguous) subword. ``step`` is the memory of the
    shift: max forbidden length minus one (0 when nothing longer than a
    single letter is forbidden).
    """

    d: int
    forbidden: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for w in self.forbidden:
            ncpoly.Word(w, self.d)
            if len(w) < 1:
                raise ValueError("the empty word cannot be forbidden")
        # normalize: drop duplicates and words containing another forbidden word
        words = sorted(set(self.forbidden), key=lambda w: (len(w), w))
        kept: list[tuple[int, ...]] = []
        for w in words:
            if not any(_is_subword(u, w) for u in kept):
                kept.append(w)
        object.__setattr__(self, "forbidden", tuple(kept))

    @property
    def step(self) -> int:
        return max((len(w) for w in self.forbidden), default=1) - 1

    def is_legal(self, word) -> bool:
        word = tuple(word)
        return not any(_is_subword(f, word) for f in self.forbidden)

    def extend(self, words: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Legal one-letter extensions of legal words, in lexicographic order.

        The words are legal already, so only suffixes can be forbidden.
        """
        out = []
        for w in words:
            for a in range(1, self.d + 1):
                cand = w + (a,)
                if not any(
                    len(f) <= len(cand) and cand[-len(f):] == f
                    for f in self.forbidden
                ):
                    out.append(cand)
        return out

    def legal_words(self, n: int) -> list[tuple[int, ...]]:
        """Legal words of length n, in lexicographic order."""
        level = [()]
        for _ in range(n):
            level = self.extend(level)
        return level

    def followers(self, i: int, k: int) -> list[tuple[int, ...]]:
        """Legal words a of length k such that i·a is legal."""
        return [a for a in self.legal_words(k) if self.is_legal((i,) + a)]


def _is_subword(u: tuple, w: tuple) -> bool:
    lu = len(u)
    return any(w[s:s + lu] == u for s in range(len(w) - lu + 1))


@dataclass(frozen=True)
class SubproductSystem:
    """Fibers X(0..depth) with X(m+n) contained in X(m) ⊗ X(n)."""

    d: int
    depth: int
    fibers: tuple[Subspace, ...]
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if len(self.fibers) != self.depth + 1:
            raise ValueError("need one fiber per level 0..depth")
        for n, f in enumerate(self.fibers):
            if f.ambient_dim != self.d**n:
                raise ValueError(f"fiber {n} has wrong ambient dimension")
        if self.fibers[0].dim != 1:
            raise ValueError("level-0 fiber must be C")

    def fiber(self, n: int) -> Subspace:
        return self.fibers[n]

    def dim(self, n: int) -> int:
        return self.fibers[n].dim

    def dims(self) -> list[int]:
        return [f.dim for f in self.fibers]

    @property
    def kind(self) -> str:
        return self.provenance.get("kind", "fibers")

    @cached_property
    def letter_blocks(self) -> tuple[np.ndarray, ...]:
        """blocks[n][i] = F_n[i-th block of d^{n-1} rows]† F_{n-1}, shape r_n × r_{n-1}.

        Since X(n) ⊆ E ⊗ X(n-1), the letter-i rows of F_n are F_{n-1} B_{n,i}†,
        so these d blocks per level (the left-orthonormal tensor-train cores)
        carry everything shifts, tildes and kernels need: B_{n,i} is the
        letter-i shift from level n-1 to level n. There is no level -1, so
        blocks[0] has no columns. Between two coordinate fibers the blocks
        are read off the indices, and no frame is built.
        """
        d = self.d
        blocks = [np.zeros((d, 1, 0), dtype=complex)]
        for n in range(1, self.depth + 1):
            fib, prev = self.fibers[n], self.fibers[n - 1]
            dn = d ** (n - 1)
            if isinstance(fib, CoordinateSubspace) and isinstance(prev, CoordinateSubspace):
                blocks.append(_coordinate_letter_blocks(fib.index, prev.index, d, dn))
                continue
            f_n, f_prev = fib.frame, prev.frame
            blocks.append(np.stack([
                f_n[i * dn:(i + 1) * dn, :].conj().T @ f_prev for i in range(d)
            ]))
        return tuple(blocks)


def _coordinate_letter_blocks(index: np.ndarray, prev: np.ndarray, d: int,
                              dn: int) -> np.ndarray:
    """Letter blocks between coordinate fibers with indices `index` and `prev`.

    Word j of level n (row index[j] of C^{d^n}) is the letter i followed by
    the word with row index[j] mod dn of level n-1; block i has its 1 at
    (j, k) when that word is word k of the previous level.
    """
    letter, tail = np.divmod(index, dn)
    out = np.zeros((d, index.size, prev.size), dtype=complex)
    k = np.searchsorted(prev, tail)
    hit = k < prev.size
    hit[hit] = prev[k[hit]] == tail[hit]
    rows = np.flatnonzero(hit)
    out[letter[rows], rows, k[rows]] = 1.0
    return out


def _scalar_fiber() -> CoordinateSubspace:
    return CoordinateSubspace(1, [0])


def _two_stage_null(gram: np.ndarray, residual_fn) -> np.ndarray:
    """Orthonormal basis of the numerical null space of a constraint Gram.

    Forming M†M squares singular values, so the roundoff floor of the Gram
    sits near 1e-12 * lambda_max and a bare 1e-9 cutoff on sqrt(lambda)
    would misread exact-null directions. Stage one keeps every eigenvector
    whose sqrt-eigenvalue is below a loose relative bound; stage two
    re-measures each survivor against the unsquared constraints via
    ``residual_fn`` (matrix of candidate columns -> per-column residual
    norms) and applies the span() cutoff to those honest residuals.
    """
    m = gram.shape[0]
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2)
    s = np.sqrt(np.clip(w, 0.0, None))
    smax = s[-1] if s.size else 0.0
    if smax == 0.0:
        return np.eye(m, dtype=complex)
    loose = 1e-4 * smax
    cand = v[:, s <= loose]
    if cand.shape[1] == 0:
        return cand
    res = residual_fn(cand)
    cutoff = max(linalg.RANK_REL_TOL * smax, linalg.RANK_ABS_FLOOR)
    return cand[:, res <= cutoff]


def from_ideal(gens: IdealGens, depth: int, budget: Optional[int] = None) -> SubproductSystem:
    """System whose level n is the complement of the degree-n ideal component.

    Levels are built recursively: a vector of degree n is orthogonal to the
    ideal iff it lies in E ⊗ X(n-1) and is orthogonal to every g ⊗ (word)
    with the generator g flush left. The left-edge constraints are imposed as
    a Gram null-space problem in the coordinates of E ⊗ X(n-1), which keeps
    the work proportional to the fiber dimensions rather than to d^n.
    """
    d = gens.d
    fibers = [_scalar_fiber()]
    for n in range(1, depth + 1):
        prev = fibers[-1].frame
        r_prev = prev.shape[1]
        if r_prev == 0:
            fibers.append(linalg.zero_space(d**n))
            continue
        cols = d * r_prev
        check_budget(16 * d**n * cols, budget, f"ideal fiber at level {n}")
        gram = np.zeros((cols, cols), dtype=complex)
        blocks = []
        by_degree: dict[int, list] = {}
        for g in gens.gens:
            if g.degree() <= n:
                by_degree.setdefault(g.degree(), []).append(g)
        for k, batch in sorted(by_degree.items()):
            dk1 = d ** (k - 1)
            rest = d ** (n - k)
            ftens = prev.reshape(dk1, rest, r_prev)
            # cross-Gram of the leading-letter slices, shared by the whole
            # degree batch: c4[s, j, t, l] = sum_x conj(F[s,x,j]) F[t,x,l]
            a = ftens.transpose(1, 0, 2).reshape(rest, dk1 * r_prev)
            c4 = (a.conj().T @ a).reshape(dk1, r_prev, dk1, r_prev)
            for g in batch:
                gbar = np.conj(g.eval_on_basis()).reshape(d, dk1)
                m_g = np.einsum("is,sxj->xij", gbar, ftens).reshape(rest, cols)
                blocks.append(m_g)
                gram += np.einsum(
                    "is,kt,sjtl->ijkl", gbar.conj(), gbar, c4
                ).reshape(cols, cols)

        def residual_fn(cand, blocks=blocks):
            acc = np.zeros(cand.shape[1])
            for blk in blocks:
                acc += np.sum(np.abs(blk @ cand) ** 2, axis=0)
            return np.sqrt(acc)

        z = _two_stage_null(gram, residual_fn)
        zt = z.reshape(d, r_prev, z.shape[1])
        frame = np.matmul(prev[None, :, :], zt).reshape(d**n, z.shape[1])
        fibers.append(Subspace(d**n, frame, fibers[-1].tol_used))
    return SubproductSystem(
        d, depth, tuple(fibers), {"kind": "ideal", "gens": gens}
    )


def from_subshift(spec: SubshiftSpec, depth: int, budget: Optional[int] = None) -> SubproductSystem:
    """Coordinate system spanned by the legal words of the subshift.

    Level n keeps the row indices of its legal words, which come out of
    ``extend`` in lexicographic, hence increasing, order.
    """
    d = spec.d
    fibers = [_scalar_fiber()]
    words = [()]
    dead_from = None
    held = 0
    for n in range(1, depth + 1):
        words = spec.extend(words)
        if not words and dead_from is None:
            dead_from = n
        held += 8 * len(words)
        check_budget(held, budget, f"subshift word indices up to level {n}")
        index = [ncpoly.word_index(w, d) for w in words]
        fibers.append(CoordinateSubspace(d**n, index, budget))
    return SubproductSystem(
        d, depth, tuple(fibers),
        {"kind": "subshift", "spec": spec, "dead_from": dead_from},
    )


def is_admissible(q: np.ndarray, tol: float = ADMISSIBLE_TOL):
    """Check q_ij = 1/q_ji (nonzero) off the diagonal; diagonal is ignored.

    Returns (ok, offending pair or None).
    """
    q = np.asarray(q, dtype=complex)
    d = q.shape[0]
    for i in range(d):
        for j in range(i + 1, d):
            if q[i, j] == 0 or q[j, i] == 0:
                return False, (i + 1, j + 1)
            if abs(q[i, j] * q[j, i] - 1) > tol * max(1.0, abs(q[i, j] * q[j, i])):
                return False, (i + 1, j + 1)
    return True, None


def qmatrix_level2(q: np.ndarray) -> Subspace:
    """E ⊗ E minus the span of e_i ⊗ e_j - q_ij e_j ⊗ e_i (i < j)."""
    q = np.asarray(q, dtype=complex)
    d = q.shape[0]
    rels = []
    for i in range(d):
        for j in range(i + 1, d):
            v = np.zeros(d * d, dtype=complex)
            v[i * d + j] = 1.0
            v[j * d + i] = -q[i, j]
            rels.append(v)
    if not rels:
        return linalg.full_space(d * d)
    return linalg.complement(linalg.span(np.column_stack(rels)))


def from_qmatrix(q: np.ndarray, depth: int, budget: Optional[int] = None) -> SubproductSystem:
    """Maximal system with full level 1 and the q-commutation level 2."""
    q = np.asarray(q, dtype=complex)
    d = q.shape[0]
    if q.shape != (d, d):
        raise ValueError("q must be square")
    ok, pair = is_admissible(q)
    if not ok:
        raise ValueError(
            f"q is not admissible at pair {pair}: need nonzero q_ij = 1/q_ji"
        )
    if depth == 1:
        sys_ = SubproductSystem(d, 1, (_scalar_fiber(), linalg.full_space(d)))
    else:
        sys_ = maximal_with_fibers(
            d, [linalg.full_space(d), qmatrix_level2(q)], depth, budget=budget
        )
    return SubproductSystem(
        d, depth, sys_.fibers, {"kind": "qmatrix", "q": q.copy()}
    )


def from_quadratic(a: np.ndarray, depth: int, budget: Optional[int] = None) -> SubproductSystem:
    """Maximal two-letter system with one quadratic relation sum a_ij x_i x_j."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError("quadratic systems are two-letter: a must be 2x2")
    d = 2
    if np.all(a == 0):
        sys_ = from_full(d, depth, budget=budget)
    elif depth == 1:
        sys_ = SubproductSystem(d, 1, (_scalar_fiber(), linalg.full_space(d)))
    else:
        level2 = linalg.complement(linalg.span(a.reshape(4, 1)))
        sys_ = maximal_with_fibers(
            d, [linalg.full_space(d), level2], depth, budget=budget
        )
    return SubproductSystem(
        d, depth, sys_.fibers, {"kind": "quadratic", "a": a.copy()}
    )


def from_full(d: int, depth: int, budget: Optional[int] = None) -> SubproductSystem:
    """The full system: every fiber is all of (C^d)^{⊗n}, indexed by every word."""
    check_budget(8 * sum(d**n for n in range(1, depth + 1)), budget,
                 f"full word indices up to level {depth}")
    fibers = [_scalar_fiber()]
    for n in range(1, depth + 1):
        fibers.append(linalg.full_space(d**n, budget))
    return SubproductSystem(d, depth, tuple(fibers), {"kind": "full"})


def maximal_with_fibers(d: int, prescribed: list[Subspace], depth: int,
                        tol: float = INCLUSION_TOL,
                        budget: Optional[int] = None) -> SubproductSystem:
    """Largest system extending the prescribed fibers X(1..k).

    The prescribed chain must itself satisfy the inclusions
    X(n) ⊆ X(i) ⊗ X(j) for i + j = n <= k; beyond k each level is the
    intersection of all two-fold tensor products of earlier levels.
    """
    k = len(prescribed)
    if k < 1:
        raise ValueError("need at least the level-1 fiber")
    if depth < k:
        raise ValueError("depth smaller than the prescribed chain")
    fibers = [_scalar_fiber()] + [s for s in prescribed]
    for n, s in enumerate(fibers):
        if s.ambient_dim != d**n:
            raise ValueError(f"prescribed fiber {n} has wrong ambient dimension")
    for n in range(2, k + 1):
        for i in range(1, n):
            j = n - i
            res = _pair_inclusion_residual(fibers, d, i, j)
            if res > tol:
                raise ValueError(
                    f"prescribed fibers violate X({n}) ⊆ X({i})⊗X({j}): "
                    f"residual {res:.3e}"
                )
    for n in range(k + 1, depth + 1):
        prev = fibers[n - 1]
        if prev.dim == 0 or fibers[1].dim == 0:
            fibers.append(linalg.zero_space(d**n))
            continue
        check_budget(16 * d**n * fibers[1].dim * prev.dim, budget,
                     f"maximal fiber at level {n}")
        base = np.kron(fibers[1].frame, prev.frame)
        m = base.shape[1]
        gram = np.zeros((m, m), dtype=complex)
        pairs = []
        for i in range(2, n):
            j = n - i
            fi, fj = fibers[i], fibers[j]
            if fi.dim * fj.dim == d**n:
                continue  # full pair constrains nothing
            pairs.append((i, j))
            if fi.dim == 0 or fj.dim == 0:
                gram += np.eye(m)
                continue
            w = linalg.pair_coordinates(fi.frame, fj.frame, base, d**i, d**j)
            gram += np.eye(m) - w.conj().T @ w
        if not pairs:
            z = np.eye(m, dtype=complex)
        else:

            def residual_fn(cand, pairs=pairs, base=base, fibers=fibers, n=n):
                vecs = base @ cand
                acc = np.zeros(cand.shape[1])
                for i, j in pairs:
                    proj = linalg.project_pair(
                        fibers[i].frame, fibers[j].frame, vecs, d**i, d**j
                    )
                    acc += np.sum(np.abs(vecs - proj) ** 2, axis=0)
                return np.sqrt(acc)

            z = _two_stage_null(gram, residual_fn)
        frame = base @ z
        fibers.append(Subspace(d**n, frame, prev.tol_used))
    return SubproductSystem(
        d, depth, tuple(fibers), {"kind": "fibers", "prescribed_levels": k}
    )


def _pair_inclusion_residual(fibers, d: int, i: int, j: int) -> float:
    """|| (I - P_i ⊗ P_j) frame_{i+j} ||."""
    target = fibers[i + j]
    if target.dim == 0:
        return 0.0
    g = target.frame
    proj = linalg.project_pair(fibers[i].frame, fibers[j].frame, g, d**i, d**j)
    return linalg.opnorm(g - proj)


def verify_axioms(system: SubproductSystem, tol: float = INCLUSION_TOL) -> dict:
    """Residuals of X(m+n) ⊆ X(m) ⊗ X(n) for every split of every level."""
    residuals = {}
    worst = 0.0
    for total in range(2, system.depth + 1):
        for i in range(1, total):
            res = _pair_inclusion_residual(system.fibers, system.d, i, total - i)
            residuals[(i, total - i)] = res
            worst = max(worst, res)
    return {
        "residuals": residuals,
        "max_residual": worst,
        "ok": worst <= tol,
        "tol": tol,
    }


def recover_ideal(system: SubproductSystem, n: int) -> Subspace:
    """Degree-n component of the vanishing ideal: the complement of X(n)."""
    if not 1 <= n <= system.depth:
        raise ValueError("level out of range")
    return linalg.complement(system.fiber(n))


def recover_ideal_gens(system: SubproductSystem, max_level: Optional[int] = None) -> IdealGens:
    """Complement frames of levels 1..max_level as polynomial generators."""
    top = system.depth if max_level is None else max_level
    gens = []
    for n in range(1, top + 1):
        comp = recover_ideal(system, n)
        for j in range(comp.dim):
            gens.append(NCPoly.from_vector(comp.frame[:, j], n, system.d))
    return IdealGens(system.d, gens)


def verify_unit(system: SubproductSystem, v: np.ndarray, tol: float = 1e-9) -> dict:
    """Check that v^{⊗n} survives every projection p_n.

    Tuples (v^{⊗n}) of that form are exactly the multiplicative units of the
    system; the unit is unital iff ||v|| = 1.
    """
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != system.d:
        raise ValueError("vector has wrong dimension")
    residuals = []
    w = np.ones(1, dtype=complex)
    for n in range(1, system.depth + 1):
        w = np.kron(w, v)
        diff = w - linalg.project(system.fiber(n), w.reshape(-1, 1)).ravel()
        residuals.append(float(np.linalg.norm(diff)))
    is_unit = all(r <= tol for r in residuals)
    norm_v = float(np.linalg.norm(v))
    return {
        "residuals": residuals,
        "is_unit": is_unit,
        "norm": norm_v,
        "unital": is_unit and abs(norm_v - 1.0) <= tol,
        "tol": tol,
    }
