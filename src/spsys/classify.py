"""Isomorphism tests for q-commutation and two-letter quadratic systems.

Two admissible q-matrices give isomorphic systems iff one is a relabeling
of the other (entrywise, through a permutation of the letters), provided no
off-diagonal entry equals 1; with an entry equal to 1 the classification
does not apply and the test refuses the input.

Two nonzero quadratic relations sum a_ij x_i x_j in two letters give
isomorphic systems iff B = λ Uᵗ A U for a scalar λ and a unitary U. That
orbit is decided in closed form: split A into symmetric and antisymmetric
parts, Takagi-factor the symmetric part A_s = W diag(s1, s2) Wᵗ, and read
off the complete invariants

    s2 / s1          and      (c0 / s1)^2,   c0 = conj(det W) * c,

where c is the antisymmetric coefficient (A_a = c J, J = [[0, 1], [-1, 0]]).
The symmetric ranks are decided at the witness threshold, at most half the
norm. When the symmetric part has rank one the phase of c0 is gauge and
only |c0| / s1 matters. The invariants are compared at the threshold too:
the answer is no only when no change of B within it carries B's invariants
onto A's. A matching pair yields an explicit witness (λ, U)
whose residual is verified before answering yes. The decision and the
witness are closed forms in numpy.
A witness whose residual misses its threshold, although the invariants match,
is reported inconclusive, with that residual.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

ADMISSIBLE_TOL = 1e-12
ENTRY_TOL = 1e-10
# A closest permutation whose residual misses the entry tolerance by less than
# this factor is too near the cutoff to call the pair inequivalent.
Q_NEAR_MISS_FACTOR = 10.0
WITNESS_TOL = 1e-8
# The invariants' data is read to this relative accuracy of ||B||, on top of
# the threshold: roundoff in the SVD and the Takagi factors.
INVARIANT_TOL = 1e-12


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


def q_equivalent(q: np.ndarray, r: np.ndarray, tol: float = ENTRY_TOL) -> dict:
    """Permutation equivalence of admissible q-matrices (no entry equal to 1)."""
    q = np.asarray(q, dtype=complex)
    r = np.asarray(r, dtype=complex)
    if q.shape != r.shape or q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("need two square matrices of equal size")
    d = q.shape[0]
    for name, m in (("first", q), ("second", r)):
        ok, pair = is_admissible(m)
        if not ok:
            raise ValueError(f"{name} matrix is not admissible at pair {pair}")
        for i in range(d):
            for j in range(d):
                if i != j and abs(m[i, j] - 1.0) <= 1e-12:
                    raise ValueError(
                        f"{name} matrix has entry 1 at {(i + 1, j + 1)}: "
                        "outside the classified family"
                    )
    best = None
    for sigma in permutations(range(d)):
        worst = 0.0
        for i in range(d):
            for j in range(d):
                if i != j:
                    worst = max(worst, abs(r[sigma[i], sigma[j]] - q[i, j]))
        if best is None or worst < best[1]:
            best = (sigma, worst)
        if worst <= tol:
            return {
                "equivalent": True,
                "perm": tuple(s + 1 for s in sigma),
                "residual": worst,
                "tol": tol,
            }
    return {
        "equivalent": False,
        "perm": None,
        "residual": best[1],
        "closest_perm": tuple(s + 1 for s in best[0]),
        "near_miss": best[1] <= Q_NEAR_MISS_FACTOR * tol,
        "tol": tol,
    }


def takagi_2x2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factorization A = W diag(s) Wᵗ of a complex symmetric 2x2.

    From the SVD A = U Σ V†, symmetry forces Z = U† conj(V) to be a
    symmetric unitary commuting with Σ, and W = U R works for any square
    root R of Z that is a polynomial in Z (`_unitary_sqrt_2x2`). Closed form
    in numpy, with no iteration.
    """
    a = np.asarray(a, dtype=complex)
    sym_defect = np.max(np.abs(a - a.T))
    if sym_defect > 1e-10 * max(1.0, np.max(np.abs(a))):
        raise ValueError(f"matrix is not symmetric (defect {sym_defect:.3e})")
    a = (a + a.T) / 2
    u, s, vh = np.linalg.svd(a)
    z = u.conj().T @ vh.T
    w = u @ _unitary_sqrt_2x2((z + z.T) / 2)
    res = np.max(np.abs(w @ np.diag(s) @ w.T - a))
    if res > 1e-8 * max(1.0, float(s[0])):
        raise ArithmeticError(f"Takagi residual {res:.3e}")
    return w, s


def _unitary_sqrt_2x2(z: np.ndarray) -> np.ndarray:
    """A square root R = (Z + μ₁μ₂ I) / (μ₁ + μ₂) of a 2x2 unitary Z, μᵢ² its eigenvalues.

    R² = Z by Cayley–Hamilton, and R is a polynomial in Z, so it is symmetric
    when Z is. The sign of μ₂ is chosen so that Re(μ₁ conj(μ₂)) ≥ 0, that is
    |μ₁ + μ₂| ≥ √2: no division by a small number, even for eigenvalues on
    both sides of the branch cut at −1.
    """
    mu = np.sqrt(np.linalg.eigvals(z))
    if (mu[0] * mu[1].conj()).real < 0:
        mu[1] = -mu[1]
    return (z + mu[0] * mu[1] * np.eye(2)) / (mu[0] + mu[1])


def _congruence(lam: complex, u: np.ndarray, a: np.ndarray) -> np.ndarray:
    return lam * (u.T @ a @ u)


def _canonical_data(a: np.ndarray):
    """(W, s, c, c0) for the symmetric/antisymmetric split of a."""
    a_s = (a + a.T) / 2
    c = complex((a - a.T)[0, 1] / 2)
    w, s = takagi_2x2(a_s)
    c0 = np.conj(np.linalg.det(w)) * c
    return w, s, c, c0


def _ratio_reachable(x: float, num: float, den: float, err_num: float, err_den: float) -> bool:
    """Whether x >= 0 is num'/den' for some num' >= 0 within err_num of num and
    some den' > 0 within err_den of den."""
    return (num - err_num <= x * (den + err_den)
            and (den <= err_den or x * (den - err_den) <= num + err_num))


def _arg_slack(err: float, value: float) -> float:
    """The largest change of the argument of a complex number of modulus
    `value` that a change of at most `err` makes."""
    return math.asin(err / value) if err < value else math.pi


def quad_equivalent(a: np.ndarray, b: np.ndarray, witness_tol: float = WITNESS_TOL) -> dict:
    """Decide B = λ Uᵗ A U for 2x2 complex A, B, with a witness within `threshold`."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("quadratic relations are 2x2 matrices")
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    report = {"verdict": "no", "lam": None, "u": None, "residual": None,
              "threshold": witness_tol * max(1.0, nb)}

    if na == 0.0 and nb == 0.0:
        return {**report, "verdict": "yes", "lam": 1.0 + 0j,
                "u": np.eye(2, dtype=complex), "residual": 0.0,
                "invariants": {"case": "zero"}}
    if na == 0.0 or nb == 0.0:
        return {**report, "invariants": {"case": "zero-mismatch"}}

    wa, sa, ca, c0a = _canonical_data(a)
    wb, sb, cb, c0b = _canonical_data(b)
    # the symmetric ranks at the witness threshold: a symmetric part of B below
    # it is within the threshold of 0, and A's scales by |λ| = ||B|| / ||A||.
    # The level is at most half of each norm, below s1 >= ||X|| / √2 of an X
    # with no antisymmetric part, so rank 0 comes with c != 0 on both sides.
    level = min(report["threshold"] / nb, 0.5)
    rank_a = int(np.sum(sa > level * na))
    rank_b = int(np.sum(sb > level * nb))
    inv = {
        "sym_rank": (rank_a, rank_b),
        "case": f"sym-rank-{rank_a}",
    }
    # B is within the threshold of λ Uᵗ A U only if B's invariants can be
    # moved onto A's by a change E of B with ||E|| <= e, the threshold and the
    # roundoff. E moves each singular value of the symmetric part by at most e,
    # the antisymmetric coefficient c by at most e/√2, and the determinant of
    # the symmetric part by at most ||B_s||·e + e²/2. Outside that reach the
    # answer is no; within it the witness decides. E reaches A's rank: it lifts
    # any singular value past the level, and lowers those within e of it.
    e = report["threshold"] + INVARIANT_TOL * nb
    if rank_a < rank_b and sb[rank_a] - e > level * nb:
        return {**report, "invariants": inv}

    # λ Uᵗ J U = λ det(U) J for the antisymmetric J, so U = I serves either side
    if rank_a == 0:
        return _with_witness(a, b, cb / ca, np.eye(2, dtype=complex), report, inv)
    if sb[0] == 0.0:
        # ||λ Uᵗ A U - B||² = |λ|²||A_s||² + 2|λ det(U) c_A - c_B|², least at this λ
        lam = 2 * cb * np.conj(ca) / (float(np.sum(sa ** 2)) + 2 * abs(ca) ** 2)
        found = _with_witness(a, b, lam, np.eye(2, dtype=complex), report, inv)
        return found if found["verdict"] == "yes" else {**report, "invariants": inv}

    e_c = e / math.sqrt(2)
    t = sb[0] / sa[0]
    u0a, u0b = wa.conj(), wb.conj()
    if rank_a == 1:
        qa, qb = abs(c0a) / sa[0], abs(c0b) / sb[0]
        inv["q"] = (qa, qb)
        if not _ratio_reachable(qa, abs(c0b), sb[0], e_c, e):
            return {**report, "invariants": inv}
        if abs(c0a) <= 1e-14 * sa[0]:
            gauge = np.eye(2, dtype=complex)
        else:
            psi = np.angle(c0b / (t * c0a))
            gauge = np.diag([1.0, np.exp(1j * psi)]).astype(complex)
        u = u0a @ gauge @ u0b.conj().T
        return _with_witness(a, b, t, u, report, inv)

    # rank 2: full invariants (s2/s1, (c0/s1)^2); the argument of (c0/s1)^2 is
    # 2 arg c - arg det(X_s), since det(X_s) = det(W)^2 s1 s2
    ratio_a, ratio_b = sa[1] / sa[0], sb[1] / sb[0]
    phase_a = (c0a / sa[0]) ** 2
    phase_b = (c0b / sb[0]) ** 2
    inv["s_ratio"] = (float(ratio_a), float(ratio_b))
    inv["antisym_sq"] = (complex(phase_a), complex(phase_b))
    b_s = (b + b.T) / 2
    e_det = float(np.linalg.norm(b_s)) * e + e * e / 2
    arg_reach = 2 * _arg_slack(e_c, abs(cb)) + _arg_slack(e_det, abs(np.linalg.det(b_s)))
    if not (_ratio_reachable(ratio_a, sb[1], sb[0], e, e)
            and _ratio_reachable(abs(c0a) / sa[0], abs(c0b), sb[0], e_c, e)
            and abs(np.angle(phase_a * np.conj(phase_b))) <= arg_reach):
        return {**report, "invariants": inv}
    if abs(c0a) <= 1e-14 * sa[0]:
        gauge = np.eye(2, dtype=complex)
    else:
        flip = np.real(c0b / (t * c0a)) < 0
        gauge = np.diag([1.0, -1.0]).astype(complex) if flip else np.eye(2, dtype=complex)
    u = u0a @ gauge @ u0b.conj().T
    return _with_witness(a, b, t, u, report, inv)


def _with_witness(a, b, lam, u, report, inv) -> dict:
    """`yes` with the witness (λ, U) when its residual meets the threshold, else
    `inconclusive` with that residual."""
    residual = float(np.linalg.norm(_congruence(lam, u, a) - b))
    if residual <= report["threshold"] and lam != 0:
        return {**report, "verdict": "yes", "lam": complex(lam), "u": u,
                "residual": residual, "invariants": inv}
    return {**report, "verdict": "inconclusive", "residual": residual, "invariants": inv}
