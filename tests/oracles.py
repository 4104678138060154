"""Brute-force oracles used only by the tests.

Each enumerates what the package computes another way, so it stays out of
`src/`: dense projectors, their distances and inclusion residuals, the
placements of generators in an ideal component, the letter blocks and the
shift by a whole fiber vector assembled from dense frames, the dense
total × total forms of the shift-side checks that the package runs level
by level, the pair projections, pair inclusions and unit
residuals on dense frames, the Gram ranks behind the strong-commutation
support counts, the Choi ranks of a channel's powers through its
superoperator, a channel's subproduct system from its dense Kraus-word
stacks, the maps over all d^n words behind the maximal piece, the
unsquared QR roots of the level recursion whose Grams the axiom check reads,
and the maximal completion of a prescribed chain by the pair products of its
dense frames.
"""


import numpy as np

from spsys import linalg
from spsys.linalg import RANK_ABS_FLOOR, Subspace, check_budget
from spsys.subproduct import INCLUSION_TOL, _rows, _scalar_fiber, _split, maximal_with_fibers
from spsys.cpmaps import NONZERO_TOL, KrausChannel, StochasticMatrix
from spsys.fock import DEFECT_TOL, ShiftSet, TruncatedFock
from spsys.reps import REP_TOL
from spsys.ncpoly import IdealGens, NCPoly


def zero_space(dim: int) -> Subspace:
    return Subspace(dim, np.zeros((dim, 0), dtype=complex), RANK_ABS_FLOOR)


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projection onto `s` as a dense D x D matrix."""
    return s.frame @ s.frame.conj().T


def subspace_distance(a: Subspace, b: Subspace) -> float:
    """Operator-norm distance between the two orthogonal projections."""
    return linalg.opnorm(projector(a) - projector(b))


def inclusion_residual(a: Subspace, b: Subspace) -> float:
    """|| (I - P_a) frame_b ||, zero iff b is contained in a."""
    if b.dim == 0:
        return 0.0
    rem = b.frame - linalg.project(a, b.frame)
    return linalg.opnorm(rem)


def pair_coordinates(frame_a: np.ndarray, frame_b: np.ndarray, columns: np.ndarray,
                     dim_a: int, dim_b: int) -> np.ndarray:
    """(F_a ⊗ F_b)† applied to columns living in C^{dim_a} ⊗ C^{dim_b}.

    Returns the (ra·rb) x r coordinates in the product frame, through one
    matmul per leg; the Kronecker frame is never materialized.
    """
    r = columns.shape[1]
    ra, rb = frame_a.shape[1], frame_b.shape[1]
    a1 = frame_a.conj().T @ columns.reshape(dim_a, dim_b * r)
    # (rb, dim_b) @ (ra, dim_b, r) -> (ra, rb, r): the b leg, batched over ra
    w = frame_b.conj().T @ a1.reshape(ra, dim_b, r)
    return w.reshape(ra * rb, r)


def project_pair(frame_a: np.ndarray, frame_b: np.ndarray, columns: np.ndarray,
                 dim_a: int, dim_b: int) -> np.ndarray:
    """(P_a ⊗ P_b) applied to columns living in C^{dim_a} ⊗ C^{dim_b}.

    Works through reshapes so the Kronecker projector is never materialized.
    """
    r = columns.shape[1]
    ra, rb = frame_a.shape[1], frame_b.shape[1]
    if ra == 0 or rb == 0 or r == 0:
        return np.zeros_like(columns)
    w = pair_coordinates(frame_a, frame_b, columns, dim_a, dim_b)
    tmp = frame_a @ w.reshape(ra, rb * r)
    # (dim_b, rb) @ (dim_a, rb, r) -> (dim_a, dim_b, r), batched over dim_a
    return (frame_b @ tmp.reshape(dim_a, rb, r)).reshape(dim_a * dim_b, r)


def dense_pair_residual(fibers, d: int, i: int, j: int) -> float:
    """|| (I - P_i ⊗ P_j) F_{i+j} ||, by the pair projection of the frames."""
    g = fibers[i + j].frame
    if not g.shape[1]:
        return 0.0
    return linalg.opnorm(g - project_pair(fibers[i].frame, fibers[j].frame, g, d**i, d**j))


def homogeneous_component(gens: IdealGens, n: int) -> list[np.ndarray]:
    """Spanning vectors of the degree-n piece of the ideal, as coordinates.

    Every element is e_a ⊗ g(e) ⊗ e_b with |a| + deg g + |b| = n. The list
    enumerates all such placements; callers reduce it with span().
    """
    d = gens.d
    out = []
    for g in gens.gens:
        k = g.degree()
        if k > n:
            continue
        gvec = g.eval_on_basis()
        for la in range(n - k + 1):
            lb = n - k - la
            for ia in range(d**la):
                ea = np.zeros(d**la, dtype=complex)
                ea[ia] = 1.0
                mid = np.kron(ea, gvec)
                for ib in range(d**lb):
                    eb = np.zeros(d**lb, dtype=complex)
                    eb[ib] = 1.0
                    out.append(np.kron(mid, eb))
    return out


def frame_letter_blocks(system, n: int) -> np.ndarray:
    """B_{n,i} = F_n[letter-i rows]† F_{n-1}, straight from the frames."""
    f_n, f_prev = system.fiber(n).frame, system.fiber(n - 1).frame
    dn = system.d ** (n - 1)
    return np.stack([f_n[i * dn:(i + 1) * dn].conj().T @ f_prev
                     for i in range(system.d)])


def shift_of_vector(shifts: ShiftSet, xi: np.ndarray, n: int) -> np.ndarray:
    """The shift by a whole fiber vector: sum_w xi_w S^w for xi in X(n).

    Assembled block-by-block as F_{m+n}^† (xi ⊗ F_m), which agrees with the
    word-sum because nested level projections collapse onto the top one.
    """
    fock, system = shifts.fock, shifts.fock.system
    d = system.d
    xi = np.asarray(xi, dtype=complex).ravel()
    if xi.size != d**n:
        raise ValueError(f"expected {d ** n} coordinates at level {n}")
    out = np.zeros((fock.total_dim, fock.total_dim), dtype=complex)
    for m in range(fock.depth - n + 1):
        fm = system.fiber(m).frame
        ftop = system.fiber(m + n).frame
        r_top = ftop.shape[1]
        if r_top == 0 or fm.shape[1] == 0:
            continue
        t1 = np.einsum(
            "a,apr->pr", xi, np.conj(ftop.reshape(d**n, d**m, r_top))
        )
        block = t1.T @ fm
        out[fock.level_slice(m + n), fock.level_slice(m)] = block
    return out


def of_word(shifts: ShiftSet, word) -> np.ndarray:
    """S^w = S_{w_1} ... S_{w_k} (identity for the empty word)."""
    out = np.eye(shifts.fock.total_dim, dtype=complex)
    for a in word:
        out = out @ shifts.matrices[a - 1]
    return out


def particle_projection(fock: TruncatedFock, below: int) -> np.ndarray:
    """Projection onto levels 0..below-1."""
    p = np.zeros((fock.total_dim, fock.total_dim), dtype=complex)
    cut = fock.offsets[min(below, fock.depth + 1)]
    p[:cut, :cut] = np.eye(cut)
    return p


def dense_defect_projection(shifts: ShiftSet, k: int) -> np.ndarray:
    """I - sum_{|w|=k} S^w S^{w*}, built by the recursion A_k = sum_i S_i A_{k-1} S_i^†."""
    total = shifts.fock.total_dim
    acc = np.eye(total, dtype=complex)
    for _ in range(k):
        acc = sum(s @ acc @ s.conj().T for s in shifts.matrices)
    return np.eye(total) - acc


def dense_defect_residual(shifts: ShiftSet, k: int) -> float:
    """||D_k - P_{<k}|| on the window of levels 0..depth-k, on dense matrices."""
    win = shifts.fock.window(shifts.fock.depth - k)
    dk = dense_defect_projection(shifts, k)[win, win]
    return linalg.opnorm(dk - particle_projection(shifts.fock, k)[win, win])


def dense_subshift_relations(shifts: ShiftSet, tol: float = DEFECT_TOL) -> dict:
    """Orthogonality, per-letter range identities and completeness on dense matrices."""
    fock = shifts.fock
    spec = fock.system.provenance["spec"]
    d, n_depth, k = fock.system.d, fock.depth, spec.step
    ortho = 0.0
    for i in range(d):
        for j in range(d):
            if i != j:
                ortho = max(ortho, linalg.opnorm(
                    shifts.matrices[i].conj().T @ shifts.matrices[j]))
    per_letter = []
    win = fock.window(max(n_depth - k - 1, 0))
    low = particle_projection(fock, k)
    for i in range(1, d + 1):
        si = shifts.matrices[i - 1]
        followers = spec.followers(i, k)
        acc = np.zeros_like(si, dtype=complex)
        for a in followers:
            sa = of_word(shifts, a)
            acc += sa @ sa.conj().T
        diff = (si.conj().T @ si - acc)[win, win]
        sing = np.linalg.svd(diff, compute_uv=False) if diff.size else np.array([])
        per_letter.append({
            "letter": i,
            "followers": len(followers),
            "rank": int(np.sum(sing > tol)),
            "support_residual": linalg.opnorm(diff - low[win, win] @ diff @ low[win, win]),
        })
    return {"orthogonality": ortho, "per_letter": per_letter,
            "completeness_residual": dense_defect_residual(shifts, 1)}


def dense_annihilation_residual(shifts: ShiftSet, p: NCPoly) -> float:
    """||p(S) Ω|| from the dense shift matrices."""
    return float(np.linalg.norm(p.eval_on_tuple(shifts.matrices) @ shifts.fock.vacuum()))


def _tensor_eye(op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(op ⊗ I) x, for x whose row index is (column of op, inner index)."""
    return (op @ x.reshape(op.shape[1], -1)).reshape(-1, x.shape[1])


def dense_poisson_value(kernel, alpha, beta) -> np.ndarray:
    """K† (S^a S^{b†} ⊗ I) K from the dense shift matrices."""
    shifts = kernel.shifts()
    op = of_word(shifts, alpha) @ of_word(shifts, beta).conj().T
    return kernel.matrix.conj().T @ _tensor_eye(op, kernel.matrix)


def dense_model_residuals(kernel, w) -> list[float]:
    """||(S_i† ⊗ I) K - K W_i†|| for each letter, from the dense shift matrices."""
    shifts, k = kernel.shifts(), kernel.matrix
    return [linalg.opnorm(_tensor_eye(s.conj().T, k) - k @ wi.conj().T)
            for s, wi in zip(shifts.matrices, w.matrices)]


def dense_axiom_residuals(system) -> dict:
    """|| (I - P_i ⊗ P_j) F_{i+j} || for every split, by pair projections of the frames."""
    return {(i, total - i): dense_pair_residual(system.fibers, system.d, i, total - i)
            for total in range(2, system.depth + 1) for i in range(1, total)}


def dense_unit_residuals(system, v) -> list[float]:
    """||(I - P_n) v^{⊗n}|| for n = 1..depth, projecting v^{⊗n} through each fiber's frame."""
    v = np.asarray(v, dtype=complex).ravel()
    w, out = np.ones(1, dtype=complex), []
    for n in range(1, system.depth + 1):
        w = np.kron(w, v)
        f = system.fiber(n).frame
        out.append(float(np.linalg.norm(w - f @ (f.conj().T @ w))))
    return out


def gram_dim_oracle(p, q, i: int, k: int,
                    tol: float = NONZERO_TOL) -> tuple[int, int]:
    """Ranks of the two Gram matrices of lifted basis vectors at (i, k).

    The vectors e_i ⊗ e_j ⊗ e_k (one per intermediate state j) have, in the
    order Q-after-P respectively P-after-Q, the diagonal Gram matrices
    diag_j(q_kj p_ji) and diag_j(p_kj q_ji); the ranks are the two counts of
    the support criterion. Indices are 1-based.
    """
    p, q = StochasticMatrix(p).p, StochasticMatrix(q).p
    i, k = i - 1, k - 1
    g1 = np.diag(q[k, :] * p[:, i])
    g2 = np.diag(p[k, :] * q[:, i])
    r1 = int(np.sum(np.linalg.eigvalsh(g1) > tol))
    r2 = int(np.sum(np.linalg.eigvalsh(g2) > tol))
    return r1, r2


def superop(channel: KrausChannel) -> np.ndarray:
    """Column-stacking superoperator: vec(Θ(x)) = S vec(x)."""
    return sum(np.kron(k.conj(), k) for k in channel.kraus)


def choi_matrix(channel: KrausChannel, power: int = 1) -> np.ndarray:
    """sum_ab E_ab ⊗ Θ^power(E_ab), with iterates via superoperator powers.

    Θ(E_ab)[i, j] is the entry (i + h·j, a + h·b) of the column-stacking
    superoperator S, so the Choi matrix is a reshuffle of S's entries.
    """
    h = channel.h
    s = np.linalg.matrix_power(superop(channel), power)
    return s.reshape(h, h, h, h).transpose(3, 1, 2, 0).reshape(h * h, h * h)


def choi_rank(channel: KrausChannel, power: int = 1) -> int:
    """Rank of the Choi matrix (eigenvalues above 1e-9 of the largest); equals
    the minimal Kraus number."""
    c = choi_matrix(channel, power)
    w = np.linalg.eigvalsh((c + c.conj().T) / 2)
    wmax = w[-1] if w.size else 0.0
    cutoff = max(1e-9 * max(wmax, 0.0), 1e-12)
    return int(np.sum(w > cutoff))


def kraus_word_stack(channel: KrausChannel, n: int) -> np.ndarray:
    """K_n: the d^n rows vec(V^w)ᵀ, V^w = V_{w_1} ⋯ V_{w_n}, words in lexicographic order."""
    h, kraus = channel.h, np.stack(channel.kraus)[:, None]
    words = np.eye(h, dtype=complex)[None]
    for _ in range(n):
        words = np.matmul(kraus, words[None]).reshape(-1, h, h)  # rows (first letter, rest)
    return words.reshape(-1, h * h)


def kraus_word_system(channel: KrausChannel, depth: int):
    """X_V to `depth`: level n is the orthogonal complement of the degree-n
    polynomials p with p(V) = 0, the span of the columns of conj(K_n),
    passed through `maximal_with_fibers`."""
    d = len(channel.kraus)
    frames = [linalg.span(kraus_word_stack(channel, n).conj(), ambient_dim=d**n)
              for n in range(1, depth + 1)]
    return maximal_with_fibers(d, frames, depth)


def full_word_maps(rep, depth: int) -> list[np.ndarray]:
    """W_n: (C^d)^{⊗n} ⊗ C^h -> C^h, e_w ⊗ v -> T^w v, built recursively."""
    maps = [np.eye(rep.h, dtype=complex)]
    for _ in range(depth):
        # [T_1 ... T_d] (I_d ⊗ W_{n-1}) without forming the Kronecker factor
        maps.append(np.hstack([t @ maps[-1] for t in rep.matrices]))
    return maps


def word_map_piece(system, rep, tol: float = REP_TOL) -> dict:
    """The maximal piece from the stacked (I - P_n ⊗ P_V) W_n†, over all d^n words.

    Shrinks from the full space until the null space of the stack, its right
    singular vectors at singular values <= tol, keeps its dimension; returns the
    subspace, the iteration count and the largest ||(I - P_n ⊗ P_V) W_n† Q_V||
    at the fixed point.
    """
    d, depth, h = system.d, system.depth, rep.h
    adjoints = [m.conj().T for m in full_word_maps(rep, depth)]
    current = linalg.full_space(h)
    iterations = 0
    while True:
        iterations += 1
        blocks = [np.eye(h) - projector(current)]
        for n in range(1, depth + 1):
            m = adjoints[n]
            blocks.append(m - project_pair(
                system.fiber(n).frame, current.frame, m, d**n, h))
        # the stack has at least h rows (its first block); its R factor has
        # the same singular values and right singular vectors
        _, sing, vh = np.linalg.svd(np.linalg.qr(np.vstack(blocks), mode="r"))
        rank = int(np.sum(sing > tol))
        nxt = Subspace(h, vh[rank:].conj().T, tol)
        done = nxt.dim == current.dim
        current = nxt
        if done or current.dim == 0:
            break
    residual = 0.0
    if current.dim > 0:
        for n in range(1, depth + 1):
            img = adjoints[n] @ current.frame
            img -= project_pair(system.fiber(n).frame, current.frame, img, d**n, h)
            residual = max(residual, linalg.opnorm(img))
    return {"subspace": current, "dim": current.dim, "iterations": iterations,
            "residual": residual}


# Stage one of `_two_stage_null` keeps sqrt-eigenvalues up to this at least: a
# Gram eigenvalue of 1e-12, far above the roundoff (about 1e-15) of a sum of
# I - W†W terms whose exact value is zero.
STAGE_ONE_FLOOR = 1e-6


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
    # the floor lets a Gram that is zero to roundoff pass every direction on
    loose = max(1e-4 * smax, STAGE_ONE_FLOOR)
    cand = v[:, s <= loose]
    if cand.shape[1] == 0:
        return cand
    res = residual_fn(cand)
    cutoff = max(linalg.RANK_REL_TOL * smax, linalg.RANK_ABS_FLOOR)
    return cand[:, res <= cutoff]



def dense_maximal_with_fibers(d: int, prescribed: list[Subspace], depth: int,
                              tol: float = INCLUSION_TOL) -> tuple[Subspace, ...]:
    """The fibers X(0..depth) of the largest system extending the prescribed
    X(1..k), as dense frames.

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
            res = dense_pair_residual(fibers, d, i, j)
            if res > tol:
                raise ValueError(
                    f"prescribed fibers violate X({n}) ⊆ X({i})⊗X({j}): "
                    f"residual {res:.3e}"
                )
    for n in range(k + 1, depth + 1):
        prev = fibers[n - 1]
        if prev.dim == 0 or fibers[1].dim == 0:
            fibers.append(zero_space(d**n))
            continue
        check_budget(16 * d**n * fibers[1].dim * prev.dim, f"maximal fiber at level {n}")
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
            w = pair_coordinates(fi.frame, fj.frame, base, d**i, d**j)
            gram += np.eye(m) - w.conj().T @ w
        if not pairs:
            z = np.eye(m, dtype=complex)
        else:

            def residual_fn(cand, pairs=pairs, base=base, fibers=fibers, n=n):
                vecs = base @ cand
                acc = np.zeros(cand.shape[1])
                for i, j in pairs:
                    proj = project_pair(
                        fibers[i].frame, fibers[j].frame, vecs, d**i, d**j
                    )
                    acc += np.sum(np.abs(vecs - proj) ** 2, axis=0)
                return np.sqrt(acc)

            z = _two_stage_null(gram, residual_fn)
        frame = base @ z
        fibers.append(Subspace(d**n, frame, prev.tol_used))
    return tuple(fibers)


def qr_level_roots(system, stacks) -> list[np.ndarray]:
    """R_k for k = 0..len(stacks), with R_k† R_k the Gram G_k of
    `subproduct._level_recursion` on the same letters, unsquared.

    R_k is the R factor of the rows R_{k-1} L_{k,i} over the complement rows
    Y_k = (C_k† ⊗ I) U_k, at most w_k rows, so its singular values are those of
    ((I - P_k) ⊗ I) M_k themselves, not their squares.
    """
    w0 = stacks[0].shape[1]
    a = np.eye(w0, dtype=stacks[0].dtype)
    roots = [np.zeros((0, w0), dtype=stacks[0].dtype)]
    for k, letters in enumerate(stacks, 1):
        w = letters.shape[2]
        u = np.matmul(a, letters).reshape(-1, w0 * w)
        zh, ch = _split(system, k, True)
        a = _rows(zh, u).reshape(-1, w)
        roots.append(np.linalg.qr(np.vstack([np.matmul(roots[-1], letters).reshape(-1, w),
                                             _rows(ch, u).reshape(-1, w)]), mode="r"))
    return roots
