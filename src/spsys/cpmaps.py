"""Completely positive maps: Choi ranks, iterate dimensions, and the
combinatorial strong-commutation test for stochastic matrix pairs.

The dimension sequence attached to a CP map is the Choi rank of its powers;
it is submultiplicative because a Kraus family for a composition is the set
of products of the factors' families. For a pair of commuting stochastic
matrices, strong commutation of the associated CP maps reduces to a support
count: for every pair of states (i, k), the number of intermediate states j
with q_kj p_ji != 0 must match the number with p_kj q_ji != 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NONZERO_TOL = 1e-12
ROWSUM_TOL = 1e-12
ENTRY_CLAMP = -1e-15


@dataclass(frozen=True)
class KrausChannel:
    """CP map x -> sum_i K_i x K_i† on B(C^h)."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.kraus:
            raise ValueError("need at least one Kraus operator")
        h = self.kraus[0].shape[0]
        mats = []
        for k in self.kraus:
            k = np.asarray(k, dtype=complex)
            if k.shape != (h, h):
                raise ValueError("Kraus operators must be square, equal size")
            mats.append(k)
        object.__setattr__(self, "kraus", tuple(mats))

    @property
    def h(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        return sum(k @ x @ k.conj().T for k in self.kraus)

    def superop(self) -> np.ndarray:
        """Column-stacking superoperator: vec(Θ(x)) = S vec(x)."""
        return sum(np.kron(k.conj(), k) for k in self.kraus)


def choi_matrix(channel: KrausChannel, power: int = 1) -> np.ndarray:
    """sum_ab E_ab ⊗ Θ^power(E_ab), with iterates via superoperator powers.

    Θ(E_ab)[i, j] is the entry (i + h·j, a + h·b) of the column-stacking
    superoperator S, so the Choi matrix is a reshuffle of S's entries.
    """
    h = channel.h
    s = np.linalg.matrix_power(channel.superop(), power)
    return s.reshape(h, h, h, h).transpose(3, 1, 2, 0).reshape(h * h, h * h)


def choi_rank(channel: KrausChannel, power: int = 1) -> int:
    """Rank of the Choi matrix (eigenvalues above 1e-9 of the largest); equals
    the minimal Kraus number."""
    c = choi_matrix(channel, power)
    w = np.linalg.eigvalsh((c + c.conj().T) / 2)
    wmax = w[-1] if w.size else 0.0
    cutoff = max(1e-9 * max(wmax, 0.0), 1e-12)
    return int(np.sum(w > cutoff))


def as_fiber_dims(channel: KrausChannel, n_max: int) -> list[int]:
    """Choi ranks of Θ^0, Θ^1, ..., Θ^{n_max}."""
    return [choi_rank(channel, power=n) for n in range(n_max + 1)]


def dims_submultiplicative(dims: list[int]) -> bool:
    """dims[m + n] <= dims[m] * dims[n] wherever defined."""
    top = len(dims) - 1
    for m in range(top + 1):
        for n in range(top + 1 - m):
            if dims[m + n] > dims[m] * dims[n]:
                return False
    return True


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic matrix; rows sum to one within 1e-12."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("stochastic matrix must be square")
        if np.min(p) < ENTRY_CLAMP:
            raise ValueError(f"negative entry {np.min(p):.3e}")
        p = np.clip(p, 0.0, None)
        sums = p.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > ROWSUM_TOL:
            raise ValueError(
                f"row sums deviate from 1 by {np.max(np.abs(sums - 1.0)):.3e}"
            )
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.p.shape[0]


def _as_stochastic(m) -> StochasticMatrix:
    return m if isinstance(m, StochasticMatrix) else StochasticMatrix(np.asarray(m))


def commute_check(a, b, tol: float = NONZERO_TOL) -> dict:
    a, b = _as_stochastic(a), _as_stochastic(b)
    diff = a.p @ b.p - b.p @ a.p
    worst = float(np.max(np.abs(diff))) if diff.size else 0.0
    return {"commute": worst <= tol, "max_entry": worst, "tol": tol}


def _support_counts(q: np.ndarray, p: np.ndarray, tol: float) -> np.ndarray:
    """counts[k, i] = #{j : q_kj * p_ji > tol}."""
    prods = q[:, :, None] * p[None, :, :]  # [k, j, i]
    return np.sum(np.abs(prods) > tol, axis=1)


def strong_commute_stochastic(p, q, tol: float = NONZERO_TOL) -> dict:
    """Support-count criterion for strong commutation of the pair.

    Only meaningful when the matrices commute; in that case the pair
    strongly commutes iff for all (i, k) the counts
    #{j: q_kj p_ji != 0} and #{j: p_kj q_ji != 0} agree. Mismatching pairs
    are returned as witnesses (1-based indices).
    """
    p, q = _as_stochastic(p), _as_stochastic(q)
    if p.n != q.n:
        raise ValueError("sizes differ")
    comm = commute_check(p, q, tol)
    qp = _support_counts(q.p, p.p, tol)  # qp[k, i]
    pq = _support_counts(p.p, q.p, tol)
    witnesses = [
        {"i": i + 1, "k": k + 1, "count_qp": int(qp[k, i]), "count_pq": int(pq[k, i])}
        for k in range(p.n)
        for i in range(p.n)
        if qp[k, i] != pq[k, i]
    ]
    strong = (comm["commute"] and not witnesses) if comm["commute"] else None
    return {
        "commute": comm["commute"],
        "commute_residual": comm["max_entry"],
        "strong": strong,
        "witnesses": witnesses,
        "tol": tol,
    }
