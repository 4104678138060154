"""Completely positive maps: the dimensions of a channel's powers, and the
combinatorial strong-commutation test for stochastic matrix pairs.

The dimension sequence attached to a CP map is the Choi rank of its powers,
the dimension of the span of the Kraus products of each length; it is
submultiplicative because a Kraus family for a composition is the set of
products of the factors' families. For a pair of commuting stochastic
matrices, strong commutation of the associated CP maps reduces to a support
count: for every pair of states (i, k), the number of intermediate states j
with q_kj p_ji != 0 must match the number with p_kj q_ji != 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spsys.linalg import check_budget

NONZERO_TOL = 1e-12
ROWSUM_TOL = 1e-12
ENTRY_CLAMP = -1e-15


@dataclass(frozen=True)
class KrausChannel:
    """CP map x -> sum_i K_i x K_i† on B(C^h)."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not mats:
            raise ValueError("need at least one Kraus operator")
        if any(k.shape != (len(mats[0]),) * 2 for k in mats):
            raise ValueError("Kraus operators must be square, equal size")
        object.__setattr__(self, "kraus", mats)

    @property
    def h(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        return sum(k @ x @ k.conj().T for k in self.kraus)


def as_fiber_dims(channel: KrausChannel, n_max: int) -> list[int]:
    """dim span{V^w : |w| = n}, n = 0..n_max: the Choi ranks of Θ^n and the levels
    of X_V, the system of the ideal of polynomials that vanish on V.

    Level n keeps r_n rows L_n of h² entries, L_n† L_n = K_n† K_n for the rows
    vec(V^w)ᵀ of K_n. Level n+1 is one thin SVD of the rows vec(V_i M)ᵀ, M a row
    of L_n as h × h, cut at the Choi matrix's σ² > max(1e-9·σ_max², 1e-12), after
    one budget check: the Kraus stack, the stack, its thin SVD factors and the
    next factor, never all held at once.
    """
    if n_max < 0:
        raise ValueError(f"the highest power must be >= 0, not {n_max}")
    h, d, hh = channel.h, len(channel.kraus), channel.h ** 2
    kraus = np.stack(channel.kraus)[:, None]  # d × 1 × h × h, against r × h × h
    factor, dims = np.eye(h, dtype=complex).reshape(1, hh), [1]
    for n in range(1, n_max + 1):
        r = len(factor)
        if r:  # from a zero level on, every level is zero
            k = min(d * r, hh)
            check_budget(16 * (d * hh + d * r * (hh + k) + k * (2 * hh + 1)) + 4096,
                         f"channel level {n} of {h} x {h}")
            stack = np.matmul(kraus, factor.reshape(r, h, h)).reshape(d * r, hh)
            del factor  # one level's rows at a time
            s, wh = np.linalg.svd(stack, full_matrices=False)[1:]
            del stack
            r = int(np.sum(s * s > max(1e-9 * s[0] ** 2, 1e-12)))
            factor = s[:r, None] * wh[:r]
            del wh
        dims.append(r)
    return dims


def submultiplicative_slack(dims: list[int]) -> int | None:
    """The smallest dims[m] * dims[n] - dims[m + n] over m, n >= 1 wherever defined,
    or None with no such pair; dims[0] = 1 makes every split with m or n = 0 exact."""
    top = len(dims) - 1
    return min((dims[m] * dims[n] - dims[m + n]
                for m in range(1, top) for n in range(1, top + 1 - m)), default=None)


def dims_submultiplicative(dims: list[int]) -> bool:
    """dims[m + n] <= dims[m] * dims[n] wherever defined."""
    slack = submultiplicative_slack(dims)
    return slack is None or slack >= 0


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
