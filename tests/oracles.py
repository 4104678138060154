"""Brute-force oracles used only by the tests.

Each enumerates what the package computes another way, so it stays out of
`src/`: the placements of generators in an ideal component, the shift by a
whole fiber vector assembled from dense frames, the Gram ranks behind the
strong-commutation support counts, and the maps over all d^n words behind
the maximal piece and the complement residuals.
"""

import numpy as np

from spsys import linalg
from spsys.cpmaps import NONZERO_TOL, StochasticMatrix
from spsys.fock import ShiftSet
from spsys.ncpoly import IdealGens


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


def full_word_maps(rep, depth: int) -> list[np.ndarray]:
    """W_n: (C^d)^{⊗n} ⊗ C^h -> C^h, e_w ⊗ v -> T^w v, built recursively."""
    maps = [np.eye(rep.h, dtype=complex)]
    for _ in range(depth):
        # [T_1 ... T_d] (I_d ⊗ W_{n-1}) without forming the Kronecker factor
        maps.append(np.hstack([t @ maps[-1] for t in rep.matrices]))
    return maps


def word_map_piece(system, rep) -> dict:
    """The maximal piece from the stacked (I - P_n ⊗ P_V) W_n†, over all d^n words.

    Shrinks from the full space until the null space of the stack keeps its
    dimension; returns the subspace, the iteration count and the largest
    ||(I - P_n ⊗ P_V) W_n† Q_V|| at the fixed point.
    """
    d, depth, h = system.d, system.depth, rep.h
    adjoints = [m.conj().T for m in full_word_maps(rep, depth)]
    current = linalg.full_space(h)
    iterations = 0
    while True:
        iterations += 1
        blocks = [np.eye(h) - linalg.projector(current)]
        for n in range(1, depth + 1):
            m = adjoints[n]
            blocks.append(m - linalg.project_pair(
                system.fiber(n).frame, current.frame, m, d**n, h))
        nxt = linalg.nullspace(np.vstack(blocks))
        done = nxt.dim == current.dim
        current = nxt
        if done or current.dim == 0:
            break
    residual = 0.0
    if current.dim > 0:
        for n in range(1, depth + 1):
            img = adjoints[n] @ current.frame
            img -= linalg.project_pair(system.fiber(n).frame, current.frame, img, d**n, h)
            residual = max(residual, linalg.opnorm(img))
    return {"subspace": current, "dim": current.dim, "iterations": iterations,
            "residual": residual}
