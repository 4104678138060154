"""Standard subproduct systems over N at finite depth.

A system is a chain of fibers X(0)=C, X(1), ..., X(N) with X(n) a subspace
of (C^d)^{⊗n} such that X(m+n) sits inside X(m) ⊗ X(n) for all m, n. The
constructors here realize the concrete sources of such chains:

* two-sided homogeneous ideals of the free algebra (complements of the
  graded components), among them the q-commutation relations
  x_i x_j = q_ij x_j x_i and one quadratic relation in two variables,
* subshifts and the full system (coordinate subspaces spanned by words),

plus the maximal completion of an explicitly prescribed finite chain
(`fibers` specs), which is `from_ideal` on generators derived from the
prescribed levels. Every constructor records its generators in
``provenance["gens"]`` and returns a coordinate chain or a core chain.

A system's dtype follows its defining data, decided once per constructor:
word indices and relations whose coefficients are all exactly real give
float64 cores, anything else complex128. Level maps, shifts and defects
keep that dtype through numpy's type promotion; a complex tuple meeting a
real map is promoted to complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from spsys import linalg
from spsys.linalg import CoordinateSubspace, CoreSubspace, Subspace, check_budget
from spsys import ncpoly
from spsys.ncpoly import IdealGens, NCPoly

INCLUSION_TOL = 1e-9
UNIT_TOL = 1e-9
# Generators made by `NCPoly.from_rows`, in tracemalloc's count (CPython 3.11,
# 64-bit): a polynomial; a term (its complex coefficient and dict slot); and a
# word of the degree apart from its 8 bytes a letter (the tuple the polynomials
# share, and a row's nonzero entries in lists while its polynomial is made)
GEN_BYTES = 512
GEN_TERM_BYTES = 96
GEN_WORD_BYTES = 320


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

    def extend_index(self, index: np.ndarray, n: int) -> np.ndarray:
        """Word indices of the legal words of length n, from those of length n-1.

        The candidates index·d + a are in increasing (lexicographic) order.
        The words of `index` are legal already, so a candidate is illegal iff
        some forbidden word f is its suffix, that is iff it is index(f) mod d^{|f|}.
        """
        d = self.d
        if d**n > np.iinfo(np.int64).max:
            raise ValueError(f"level {n} has {d}^{n} words, beyond int64 word indices")
        cand = (index[:, None] * d + np.arange(d)).ravel()
        keep = np.ones(cand.size, dtype=bool)
        for f in self.forbidden:
            if len(f) <= n:
                keep &= cand % d**len(f) != ncpoly.word_index(f, d)
        return cand[keep]

    def legal_words(self, n: int) -> list[tuple[int, ...]]:
        """Legal words of length n, in lexicographic order."""
        index = np.zeros(1, dtype=np.int64)
        for k in range(1, n + 1):
            index = self.extend_index(index, k)
        return [ncpoly.index_word(int(i), n, self.d) for i in index]

    def followers(self, i: int, k: int) -> list[tuple[int, ...]]:
        """Legal words a of length k such that i·a is legal."""
        return [a for a in self.legal_words(k) if self.is_legal((i,) + a)]


def _is_subword(u: tuple, w: tuple) -> bool:
    lu = len(u)
    return any(w[s:s + lu] == u for s in range(len(w) - lu + 1))


@dataclass(frozen=True)
class SubproductSystem:
    """Fibers X(0..depth) with X(m+n) contained in X(m) ⊗ X(n).

    The fibers take one of two forms, fixed for the whole system (`route`):
    every fiber a `CoordinateSubspace` (word indices), or every fiber above
    level 0 a `CoreSubspace` over the fiber below it. Every constructor
    returns one of them; frames made by hand enter through
    `maximal_with_fibers`, which turns them into a core chain.
    """

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
        fibers = self.fibers
        if self.route == "coordinate":
            bad = [n for n, f in enumerate(fibers) if not isinstance(f, CoordinateSubspace)]
        else:
            bad = [n for n in range(1, self.depth + 1) if not (
                isinstance(fibers[n], CoreSubspace) and fibers[n].prev is fibers[n - 1])]
        if bad:
            raise ValueError(
                f"fiber {bad[0]} breaks the system's form: every fiber must be word "
                f"indices, or every fiber above level 0 a core over the fiber below; "
                f"build hand-made frames with maximal_with_fibers(d, frames, len(frames))")

    def fiber(self, n: int) -> Subspace:
        return self.fibers[n]

    def dim(self, n: int) -> int:
        return self.fibers[n].dim

    def dims(self) -> list[int]:
        return [f.dim for f in self.fibers]

    @property
    def kind(self) -> str:
        return self.provenance.get("kind", "fibers")

    @property
    def dtype(self) -> np.dtype:
        """float64 for word indices and real relations, else complex128."""
        return self.fibers[-1].dtype

    @property
    def route(self) -> str:
        """How every level sits over the one below: "coordinate" (word indices)
        or "core" (a core over the fiber below)."""
        return "coordinate" if isinstance(self.fibers[1], CoordinateSubspace) else "core"


def _positions(index: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each value would sit in the strictly increasing `index`, and whether it is there."""
    k = np.searchsorted(index, values)
    hit = k < index.size
    hit[hit] = index[k[hit]] == values[hit]
    return k, hit


def _split(system: SubproductSystem, n: int, complement: bool) -> tuple:
    """Z_n† and, with `complement`, C_n† (else None), as maps on the rows
    (letter, previous word) of C^d ⊗ X(n-1).

    Z_n is the stacked core (d·r_{n-1} × r_n): the letter-i rows of F_n are
    F_{n-1} Z_{n,i}. C_n is an orthonormal complement of Z_n, so [Z_n | C_n] is
    unitary. On a coordinate level both are 0/1 columns, and each comes back as
    the rows it picks: the (letter, previous word) pairs that are words of X(n),
    and those that are not. On a core level both are matrices, and C_n comes
    from a complete QR of the stacked core.
    """
    fib, prev = system.fibers[n], system.fibers[n - 1]
    if system.route == "coordinate":
        letter, tail = np.divmod(fib.index, prev.ambient_dim)
        k, hit = _positions(prev.index, tail)
        del tail
        if not hit.all():
            raise ValueError(f"X({n}) is not inside E ⊗ X({n - 1})")
        letter *= prev.dim
        letter += k  # the rows of the hits, in place
        if not complement:
            return letter, None
        missed = np.ones(system.d * prev.dim, dtype=bool)
        missed[letter] = False
        return letter, np.flatnonzero(missed)
    zh = fib.core.frame.conj().T
    if not complement:
        return zh, None
    # conj(Z_n) = Q R: the last columns of conj(Q) span C_n, so C_n† = Q[:, r_n:]^T
    q = np.linalg.qr(zh.T, mode="complete")[0]
    return zh, q[:, fib.dim:].T


def _split_bytes(system: SubproductSystem) -> int:
    """Bytes of `_split(system, n, False)[0]` for n = 1..depth with headers: the
    copies of Z_n† (a real one is a view), or 8 bytes a word plus 7 int64 arrays
    of r_n while a level is made."""
    dims, d = system.dims(), system.d
    if system.route == "coordinate":
        held = 8 * sum(dims[1:]) + 56 * max(dims[1:])
    else:
        held = sum(system.dtype.itemsize * d * a * b for a, b in zip(dims, dims[1:]))
    return held + 256 * system.depth + 1024


def _rows(op: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Apply a `_split` map to the rows of u: a gather for indices, else a product."""
    return u[op] if op.dtype.kind == "i" else op @ u


def _cols(op: np.ndarray, y: np.ndarray, size: int) -> np.ndarray:
    """The adjoint of `_rows`: y's rows scattered into `size` zero rows for
    indices, else op† y."""
    if op.dtype.kind != "i":
        return op.conj().T @ y
    out = np.zeros((size,) + y.shape[1:], dtype=y.dtype)
    out[op] = y
    return out


def _level_recursion(system: SubproductSystem, stacks, gram: bool = False, splits=None):
    """Yield (A_k, G_k) for k = 0..len(stacks), holding only the level before.

    stacks[k-1] holds d letters L_{k,i} of shape w_{k-1} × w_k. With M_k the
    products L_{1,a_k} ⋯ L_{k,a_1} stacked on the rows (word a, w_0) of
    C^{d^k} ⊗ C^{w_0}, A_k = (F_k† ⊗ I) M_k ((r_k·w_0) × w_k, A_0 = I_{w_0}) and
    G_k = M_k† ((I - P_k) ⊗ I) M_k. One step per level: U_k = [A_{k-1} L_{k,i}]_i,
    d GEMMs held as d·r_{k-1} rows (letter, previous word) of w_0·w_k, is split
    by [Z_k | C_k] (`_split`): A_k = (Z_k† ⊗ I) U_k, and the complement rows
    Y_k = (C_k† ⊗ I) U_k carry G_{k-1} one level up, as I - P_k is
    I_d ⊗ (I - P_{k-1}) plus (I_d ⊗ F_{k-1}) C_k C_k† (I_d ⊗ F_{k-1})†. With
    `gram`, G_k = Σ_i L_{k,i}† G_{k-1} L_{k,i} + Y_k† Y_k (w_k × w_k): a sum of
    Grams, whose largest eigenvalue gives ||((I - P_k) ⊗ I) M_k|| to working
    accuracy (`linalg.gram_norm`), while its small ones are squared.
    Without `gram`, G_k is None. Every width is positive. `splits[k-1]`, if
    given, is `_split(system, k, True)`, held by the caller. A_0 and G_0 take the
    letters' dtype, and each step numpy's promotion of it with the split's.
    """
    w0 = stacks[0].shape[1]
    a = np.eye(w0, dtype=stacks[0].dtype)
    g = np.zeros((w0, w0), dtype=stacks[0].dtype) if gram else None
    yield a, g
    for k, letters in enumerate(stacks, 1):
        w = letters.shape[2]
        u = np.matmul(a, letters).reshape(-1, w0 * w)
        zh, ch = _split(system, k, gram) if splits is None else splits[k - 1]
        a = _rows(zh, u).reshape(-1, w)
        if gram:
            y = _rows(ch, u).reshape(-1, w)
            yy = y.conj().T @ y
            del y  # freed before the lifted products are made
            g = yy + letters.reshape(-1, w).conj().T @ np.matmul(g, letters).reshape(-1, w)
        del u, zh, ch  # not held while the caller works on the level or makes the next split
        yield a, g


def _recursion_bytes(system: SubproductSystem, widths: list[int], gram: bool,
                     itemsize: int) -> int:
    """Bytes one step of `_level_recursion` holds at once, at its largest level,
    on letters of `itemsize` bytes an entry.

    `widths` are w_0..w_K. A_{k-1}, U_k and A_k; the split (a few index arrays, or
    Z_k† and, with `gram`, the complete QR's Q, which C_k† views). With `gram`, the
    complement rows and the lifted products, each with a conjugate copy when
    complex, next to G_{k-1}, two w_k × w_k products, G_k and `gram_norm`'s
    eigenvalues. The complete QR is `linalg.factor_bytes`'s. Products are in the
    wider of the letters' and the system's dtype; numpy multiplies a real Z_k† (a
    view of the core) or C_k† into complex letters through a complex copy of it,
    so Z_k† counts at that width either way, and C_k†'s copy is held next to Q.
    """
    d, dims, w0 = system.d, system.dims(), widths[0]
    held = system.dtype.itemsize
    work = max(itemsize, held)
    most = 0
    for k in range(1, len(widths)):
        a, b, wp, w = dims[k - 1], dims[k], widths[k - 1], widths[k]
        rows = d * a
        if system.route == "coordinate":
            split = work * (3 * b + rows)
        else:  # Z_k†, and for the Gram the complete QR, then Q and C_k†'s copy
            qr = max(linalg.factor_bytes("qr complete", rows, b, held), (work > held) * work * (
                rows - b) * rows + linalg.factor_bytes("qr complete", rows, b, held, first=True))
            split = work * rows * b + gram * qr
        step = work * (a * wp + (rows + b) * w) * w0 + split
        if gram:
            stacked = ((rows - b) * w0 + d * wp) * w  # the complement rows and lifted products
            step += (work * ((1 + (work > 8)) * stacked + wp * wp + 3 * w * w)
                     + linalg.factor_bytes("gram_norm", w, w, work))
        most = max(most, step)
    return most


def _scalar_fiber() -> CoordinateSubspace:
    return CoordinateSubspace(1, [0])


def from_ideal(gens: IdealGens, depth: int) -> SubproductSystem:
    """System whose level n is the complement of the degree-n ideal component.

    A vector of degree n is orthogonal to the ideal iff it lies in E ⊗ X(n-1)
    and is orthogonal to every g ⊗ (word) with the generator g flush left. So
    level n is v = (I_d ⊗ F_{n-1}) z for z in the null space of the stacked
    `_generator_rows`, and that orthonormal z is the level's core: nothing of
    size d^n is formed.
    """
    d = gens.d
    dtype = np.dtype(float if all(g.is_real() for g in gens.gens) else complex)
    batches: dict[int, list] = {}
    for g in gens.gens:
        batches.setdefault(g.degree(), []).append(g.eval_on_basis())
    coeffs = {k: np.conj(np.array(b, dtype=dtype)) for k, b in batches.items()}
    fibers = [_scalar_fiber()]
    for n in range(1, depth + 1):
        null = _null_core(coeffs, fibers, d, "ideal fiber", dtype)
        fibers.append(CoreSubspace(d, fibers[-1], null))
    return SubproductSystem(d, depth, tuple(fibers), {"kind": "ideal", "gens": gens})


def _held_words(coeffs: dict, dims: list[int], d: int) -> int:
    """Words a level step keeps from the levels before: the cores and the generator rows."""
    return (sum(d * a * b for a, b in zip(dims, dims[1:]))
            + sum(c.size for c in coeffs.values()))


def _null_core(coeffs: dict, fibers: list, d: int, what: str, dtype: np.dtype) -> Subspace:
    """The core z of level n = len(fibers) of an ideal system (see `from_ideal`).

    `coeffs` maps each degree k to the rows conj(g(e)) of its generators, and
    `dtype` is the system's: the core is float64 or complex128 with it.
    """
    n, dims = len(fibers), [f.dim for f in fibers]
    # nothing is left to constrain at r = 0
    batches = {k: c for k, c in coeffs.items() if dims[-1] and k <= n}
    rows = sum(len(c) * dims[n - k] for k, c in batches.items())
    cols = d * dims[-1]
    inter = max((len(c) * d**(k - t) * dims[n - k] * dims[n - k + t]
                 for k, c in batches.items() for t in range(1, k)), default=0)
    check_budget({"cores and generator rows": dtype.itemsize * _held_words(coeffs, dims, d),
                  "constraint stack": dtype.itemsize * rows * cols,
                  "a contraction step and its transposed copy, or the null space": max(
                      2 * dtype.itemsize * inter,
                      linalg.factor_bytes("nullspace", rows, cols, dtype.itemsize))},
                 f"{what} at level {n}")
    stack = np.vstack([np.zeros((0, cols), dtype=dtype)] + [
        _generator_rows(c, [f.letter_cores() for f in fibers[n - k + 1:n]], d, dims[-1])
        for k, c in sorted(batches.items())
    ])
    return linalg.nullspace(stack)


def _generator_rows(coeffs: np.ndarray, chain: list, d: int, r_prev: int) -> np.ndarray:
    """Stacked M_g of degree-k generators, from conj(g(e)) as rows of `coeffs`.

    `chain` holds the cores Z_{n-k+1..n-1}. With Z_s the product of the cores
    along the k-1 letters s after the leading letter i, F_{n-1}[s·x] =
    F_{n-k}[x] Z_s, so (I_d ⊗ F_{n-1}) z is orthogonal to every g ⊗ u iff
    M_g z = 0, where column block i of M_g is sum_s conj(g[i·s]) Z_s. The
    letters of s are contracted last one first, against the deepest core.
    """
    if not chain:
        return np.kron(coeffs, np.eye(r_prev))
    ra = chain[0].shape[1]
    acc = coeffs.reshape(-1, d) @ chain[0].reshape(d, -1)
    for core in chain[1:]:
        rb, rc = core.shape[1:]
        acc = acc.reshape(-1, d, ra, rb).transpose(0, 2, 1, 3).reshape(-1, d * rb)
        acc = acc @ core.reshape(d * rb, rc)
    # rows (generator, r_{n-k}); columns (leading letter, r_{n-1})
    return acc.reshape(-1, d, ra, r_prev).transpose(0, 2, 1, 3).reshape(-1, d * r_prev)


def from_subshift(spec: SubshiftSpec, depth: int) -> SubproductSystem:
    """Coordinate system spanned by the legal words of the subshift.

    Level n keeps the row indices of its legal words (`SubshiftSpec.extend_index`).
    """
    d = spec.d
    fibers = [_scalar_fiber()]
    index = np.zeros(1, dtype=np.int64)
    for n in range(1, depth + 1):
        check_budget({"word indices so far": sum(f.index.nbytes for f in fibers),
                      "candidates, a remainder, the new index and two masks": 26 * d * index.size},
                     f"subshift word indices up to level {n}")
        index = spec.extend_index(index, n)
        fibers.append(CoordinateSubspace(d**n, index))
    dead_from = next((n for n, f in enumerate(fibers) if not f.dim), None)
    return SubproductSystem(
        d, depth, tuple(fibers),
        {"kind": "subshift", "spec": spec, "dead_from": dead_from,
         "gens": ncpoly.forbidden_word_gens(d, spec.forbidden)},
    )


def from_qmatrix(q: np.ndarray, depth: int) -> SubproductSystem:
    """Maximal system with full level 1 and the q-commutation level 2, as an ideal system."""
    from spsys.classify import is_admissible
    q = np.asarray(q, dtype=complex)
    d = q.shape[0]
    if q.shape != (d, d):
        raise ValueError("q must be square")
    ok, pair = is_admissible(q)
    if not ok:
        raise ValueError(
            f"q is not admissible at pair {pair}: need nonzero q_ij = 1/q_ji"
        )
    system = from_ideal(ncpoly.q_relation_gens(q), depth)
    return replace(system, provenance={**system.provenance, "kind": "qmatrix"})


def from_quadratic(a: np.ndarray, depth: int) -> SubproductSystem:
    """Maximal two-letter system with one quadratic relation sum a_ij x_i x_j (an ideal system)."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError("quadratic systems are two-letter: a must be 2x2")
    if np.all(a == 0):
        system = from_full(2, depth)
    else:
        relation = NCPoly.from_vector(a.ravel(), 2, 2)
        system = from_ideal(IdealGens(2, [relation]), depth)
    return replace(system, provenance={**system.provenance, "kind": "quadratic"})


def from_full(d: int, depth: int) -> SubproductSystem:
    """The full system: every fiber is all of (C^d)^{⊗n}, indexed by every word."""
    words = (d ** (depth + 1) - d) // (d - 1) if d != 1 else depth  # d + d^2 + ... + d^depth
    check_budget({"word indices": 8 * words}, f"full word indices up to level {depth}")
    fibers = [_scalar_fiber()]
    for n in range(1, depth + 1):
        fibers.append(linalg.full_space(d**n))
    return SubproductSystem(d, depth, tuple(fibers),
                            {"kind": "full", "gens": IdealGens(d, [])})


def maximal_with_fibers(d: int, prescribed: list[Subspace], depth: int) -> SubproductSystem:
    """Largest system extending the prescribed fibers X(1..k).

    Every subproduct system over N is the system of a homogeneous ideal
    (Shalit and Solel, Doc. Math. 14, 2009), so this is the ideal system of
    the ideal generated by X(1)^⊥, ..., X(k)^⊥, built by the level step of
    `from_ideal` on generators derived level by level. At a prescribed
    level j, N_j is the largest level the generators of lower degree allow:
    the chain is refused unless F_j lies in N_j, N_j ⊖ F_j joins the
    generators as degree j, and F_j's coordinates are the level's core
    (`_prescribed_core`). Levels above k are plain ideal levels. The derived
    generators, one polynomial g with g(e) = conj(row) for each row, are
    recorded in ``provenance["gens"]`` like those of every other constructor.
    The system is float64 when every prescribed frame is, else complex128.
    """
    k = len(prescribed)
    if k < 1:
        raise ValueError("need at least the level-1 fiber")
    if depth < k:
        raise ValueError("depth smaller than the prescribed chain")
    given = [_scalar_fiber()] + list(prescribed)
    for n, s in enumerate(given):
        if s.ambient_dim != d**n:
            raise ValueError(f"prescribed fiber {n} has wrong ambient dimension")
    dtype = np.result_type(*(s.dtype for s in given))
    coeffs: dict[int, np.ndarray] = {}
    fibers = [_scalar_fiber()]
    for n in range(1, depth + 1):
        core = _null_core(coeffs, fibers, d, "maximal fiber", dtype)
        if n <= k:
            held = dtype.itemsize * _held_words(coeffs, [f.dim for f in fibers], d)
            core, coeffs[n] = _prescribed_core(core, given[n], given[n - 1], n, held)
        fibers.append(CoreSubspace(d, fibers[-1], core))
    held = dtype.itemsize * _held_words(coeffs, [f.dim for f in fibers], d)
    check_budget({"cores and generator rows": held, **_generator_terms(
        {n: len(c) for n, c in coeffs.items()}, d)}, f"generators of the prescribed levels 1..{k}")
    gens = [g for n, c in coeffs.items() if len(c) for g in NCPoly.from_rows(np.conj(c), n, d)]
    return SubproductSystem(d, depth, tuple(fibers), {
        "kind": "fibers", "prescribed_levels": k, "gens": IdealGens(d, gens)})


def _generator_terms(counts: dict[int, int], d: int) -> dict[str, int]:
    """The budget terms of counts[n] generators of each degree n, all held, made by
    `NCPoly.from_rows` from complex rows: up to d^n terms each, sharing the words
    of their degree."""
    return {"generators": sum(c * (GEN_BYTES + GEN_TERM_BYTES * d**n) for n, c in counts.items()),
            "complex rows": sum(16 * c * d**n for n, c in counts.items()),
            "words": sum((GEN_WORD_BYTES + 8 * n) * d**n for n, c in counts.items() if c)}


def _prescribed_core(null: Subspace, fiber: Subspace, below: Subspace, n: int,
                     held: int) -> tuple[Subspace, np.ndarray]:
    """The core of the prescribed level n inside N_n, and N_n ⊖ F_n as generator rows.

    `null` is N_n in the coordinates of E ⊗ X(n-1), with frame Z; `below`
    is the prescribed X(n-1), whose frame G the lower cores reproduce; `held`
    bytes are held next to the step. With
    c = (I_d ⊗ G)† F_n and y = Z† c, the residual of F_n in N_n is
    ||F_n - (I_d ⊗ G) Z y||. From the SVD y = U S V†, Z U_1 V† (U_1 the first
    r_n columns) is the orthonormal core closest to c, and Z U_2 spans
    N_n ⊖ F_n; their rows conj(g(e)) are the new degree-n generators.
    """
    size, r, rp, m = fiber.ambient_dim, fiber.dim, below.dim, null.dim
    d, cols = size // below.ambient_dim, null.ambient_dim
    item = np.result_type(null.dtype, fiber.dtype, below.dtype).itemsize
    check_budget({"cores and generator rows": held,
                  "G†, Z, c, y and products": item * (below.ambient_dim * rp + 4 * cols * m),
                  "SVD factors and a product, or the difference's norm": max(
                      linalg.factor_bytes("svd full", m, r, item) + item * m * m,
                      linalg.factor_bytes("opnorm", size, r, item)),
                  "projection and difference, or new rows and copies": item * 3 * size * m,
                  "prescribed frames not built yet": linalg.unbuilt_frame_bytes([fiber, below])},
                 f"prescribed fiber at level {n}")
    f, gh, z = fiber.frame, below.frame.conj().T, null.frame
    c = (gh @ f.reshape(d, below.ambient_dim, r)).reshape(cols, r)
    y = z.conj().T @ c
    res = linalg.opnorm(f - (below.frame @ (z @ y).reshape(d, rp, r)).reshape(size, r))
    if res > INCLUSION_TOL:
        raise ValueError(f"prescribed fiber X({n}) is not inside the largest level {n} "
                         f"over the fibers below: residual {res:.3e}")
    u, _, vh = np.linalg.svd(y)
    core = Subspace(cols, z @ (u[:, :r] @ vh), null.tol_used)
    rest = (z @ u[:, r:]).T.conj()
    return core, (rest.reshape(m - r, d, rp) @ gh).reshape(m - r, size)


def _index_axiom_residual(fibers, d: int, i: int, j: int) -> float:
    """|| (I - P_i ⊗ P_j) frame_{i+j} || between coordinate fibers, a set inclusion.

    The unit vector of word w = (head, tail) lies in X(i) ⊗ X(j) when both
    halves are kept and is orthogonal to it otherwise, so the residual is
    exactly 0 or 1.
    """
    target, a, b = fibers[i + j], fibers[i], fibers[j]
    head, tail = np.divmod(target.index, d**j)
    kept = _positions(a.index, head)[1] & _positions(b.index, tail)[1]
    return 0.0 if kept.all() else 1.0


def _core_axiom_residuals(system: SubproductSystem) -> dict:
    """|| (I - P_k ⊗ P_n) F_{k+n} || for every split of a core chain, without a frame.

    The letter-a_1 rows of F_{k+n} are those of F_{k+n-1} times Z_{k+n,a_1}, so
    X(k+n) = (I_{d^k} ⊗ F_n) M_k, where M_k stacks the products
    Z_{n+1,a_k} ⋯ Z_{n+k,a_1}; as M_k lies in C^{d^k} ⊗ X(n), the residual is
    || ((I - P_k) ⊗ I_{r_n}) M_k ||, read from the Gram G_k of `_level_recursion`
    on the letters Z_{n+1..depth}: only the largest singular value is read, and a
    Gram holds it to working accuracy (`linalg.gram_norm`). One pass over k serves
    every split with right leg n, and nothing has d^n rows. Each left level k is
    split once (`_split`) and held for every right leg. From the first zero
    level on, every level is zero and so is every residual into it.
    """
    depth, dims = system.depth, system.dims()
    cores = [None] + [f.letter_cores() for f in system.fibers[1:]]  # cores[m][a] = Z_{m,a}
    live = dims.index(0) if 0 in dims else depth + 1
    out = {(k, n): 0.0 for n in range(1, depth) for k in range(1, depth - n + 1)}
    splits = [_split(system, k, True) for k in range(1, live - 1)]
    for n in range(1, live - 1):
        for k, (_, gram) in enumerate(_level_recursion(system, cores[n + 1:live], True,
                                                       splits)):
            if k:
                out[(k, n)] = linalg.gram_norm(gram)
    return out


def verify_axioms(system: SubproductSystem, tol: float = INCLUSION_TOL) -> dict:
    """Residuals of X(m+n) ⊆ X(m) ⊗ X(n) for every split of every level.

    A core chain (ideal, q-matrix, quadratic and `fibers` systems) is
    decided on its cores, coordinate fibers on their word indices; neither
    builds a frame. One estimate of the whole check is checked against the
    budget before anything is allocated.
    """
    splits = [(i, total - i) for total in range(2, system.depth + 1) for i in range(1, total)]
    small = {"residual dicts and headers": 256 * system.depth**2 + 4096}
    if system.route == "core":
        # a split is the complete QR's Q behind C_k†, and Z_k† (a view of the
        # core when real); a Gram step is counted with a split
        dims, d, itemsize = system.dims(), system.d, system.dtype.itemsize
        held = sum(linalg.factor_bytes("qr complete", d * a, b, itemsize, first=True)
                   + (itemsize > 8) * itemsize * d * a * b for a, b in zip(dims[:-2], dims[1:-1]))
        step = max((_recursion_bytes(system, dims[n:], True, itemsize)
                    for n in range(1, system.depth)), default=0)
        check_budget({"splits of levels 1..depth-1": held,
                      "a Gram step with its Grams and eigenvalues": step, **small},
                     f"axiom residuals on the cores up to level {system.depth}")
        found = _core_axiom_residuals(system)
    else:
        check_budget({"a split's index arrays": 48 * max(system.dims()[2:], default=0), **small},
                     f"axiom residuals on the word indices up to level {system.depth}")
        found = {s: _index_axiom_residual(system.fibers, system.d, *s) for s in splits}
    residuals = {s: found[s] for s in splits}
    worst = max(residuals.values(), default=0.0)
    return {
        "residuals": residuals,
        "max_residual": worst,
        "ok": worst <= tol,
        "tol": tol,
    }


def recover_ideal_gens(system: SubproductSystem) -> IdealGens:
    """Generators of the vanishing ideal, from the complement cores of levels 1..depth.

    As X(n) ⊆ E ⊗ X(n-1), X(n)^⊥ = E ⊗ X(n-1)^⊥ ⊕ (I_d ⊗ F_{n-1}) C_n, C_n the
    orthonormal complement of the stacked core (`_split`). The first part lies
    in the ideal the lower levels generate, so level n adds the d·r_{n-1} - r_n
    columns of (I_d ⊗ F_{n-1}) C_n: on a coordinate level, the monomials of the
    missed (letter, previous word) pairs.
    """
    d, depth, dims, item = system.d, system.depth, system.dims(), system.dtype.itemsize
    new = {n: d * dims[n - 1] - dims[n] for n in range(1, depth + 1)}
    if system.route == "coordinate":  # each monomial with its own word
        terms = {"monomials": sum(c * (GEN_BYTES + GEN_TERM_BYTES + 8 * n) for n, c in new.items()),
                 "a split's index arrays": 48 * d * max(dims[:-1])}
    else:  # a split with its complete QR and C_n†'s conjugate copy
        level = max(linalg.factor_bytes("qr complete", r, dims[n], item) + item * r * new[n]
                    + (item + 1) * d**n * new[n] for n, r in ((n, d * dims[n - 1]) for n in new))
        terms = {**_generator_terms(new, d), "a split, complement rows and a mask": level,
                 "frames not built yet": linalg.unbuilt_frame_bytes([system.fiber(depth - 1)])}
    check_budget({**terms, "headers": 16 << 10}, f"recovered generators up to level {depth}")
    gens = []
    for n in range(1, depth + 1):
        prev = system.fiber(n - 1)
        _, ch = _split(system, n, complement=True)
        if system.route == "coordinate":
            letter, k = np.divmod(ch, prev.dim)
            words = letter * prev.ambient_dim + prev.index[k]
            gens += [NCPoly.monomial(d, ncpoly.index_word(int(w), n, d)) for w in words]
            continue
        comp = prev.frame @ ch.conj().T.reshape(d, prev.dim, len(ch))
        gens += NCPoly.from_rows(comp.reshape(d**n, len(ch)).T, n, d)
    return IdealGens(d, gens)


def verify_unit(system: SubproductSystem, v: np.ndarray, tol: float = UNIT_TOL) -> dict:
    """Check that v^{⊗n} survives every projection p_n.

    Tuples (v^{⊗n}) of that form are exactly the multiplicative units of the
    system; the unit is unital iff ||v|| = 1. The residuals come level by
    level from the word indices or the cores (`_unit_residuals`), with no
    d^n-entry vector.
    """
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != system.d:
        raise ValueError("vector has wrong dimension")
    residuals = _unit_residuals(system, v)
    is_unit = all(r <= tol for r in residuals)
    norm_v = float(np.linalg.norm(v))
    return {
        "residuals": residuals,
        "is_unit": is_unit,
        "norm": norm_v,
        "unital": is_unit and abs(norm_v - 1.0) <= tol,
        "tol": tol,
    }


def _unit_residuals(system: SubproductSystem, v: np.ndarray) -> list[float]:
    """|| (I - P_n) v^{⊗n} || for n = 1..depth, without a frame.

    With u = v ⊗ c_{n-1} and c_n = F_n† v^{⊗n} = Z_n† u (`_split`), the split of
    I - P_n into I_d ⊗ (I - P_{n-1}) and (I_d ⊗ F_{n-1})(I - Z_n Z_n†)(I_d ⊗ F_{n-1})†
    gives res_n² = ||v||² res_{n-1}² + ||u - Z_n c_n||²: each part is the norm
    of an unsquared difference. On a coordinate level c_n gathers the rows of
    u that are words of X(n), and u - Z_n c_n is u at the missed rows.
    """
    coordinate = system.route == "coordinate"
    scale = float(np.vdot(v, v).real)
    c, square, out = np.ones(1, dtype=complex), 0.0, []
    for n in range(1, system.depth + 1):
        zh, missed = _split(system, n, complement=coordinate)
        u = np.outer(v, c).ravel()
        del c  # one level's coordinates at a time
        c = _rows(zh, u)
        rest = u[missed] if coordinate else u - zh.conj().T @ c
        square = scale * square + float(np.vdot(rest, rest).real)
        out.append(float(np.sqrt(square)))
        del zh, missed, u, rest  # the next split is made next to c alone
    return out
