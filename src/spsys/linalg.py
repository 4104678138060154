"""Subspace arithmetic over C^D with explicit rank tolerances.

Every subspace is carried around as an orthonormal column frame, float64
when its data is real and complex128 otherwise: nothing here casts a real
input to complex, and a real matrix has the singular values of its complex
form, so every cutoff is the same in either. Rank
decisions are made once, inside ``span``, by thresholding singular values;
the cutoff actually used is kept on the object so downstream checks can
report it. Two forms build their frame only on first use: a coordinate
subspace (the fibers of subshift and full systems) keeps the indices of its
unit vectors, and a core subspace (the fibers of ideal systems) keeps the
previous fiber and an orthonormal core that carries it one letter further.

Largest singular values come from Gram eigenvalues (`gram_norm`): a Gram
X†X or a sum of such, never a difference, has its largest eigenvalue to
absolute O(ε·σ_max²), which gives σ_max to relative O(ε). Rank decisions
read small singular values, which a Gram would square, so `span` and
`nullspace` keep the SVD (or a QR before it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Relative singular-value cutoff for rank decisions, and the absolute floor
# used when the data is identically zero.
RANK_REL_TOL = 1e-9
RANK_ABS_FLOOR = 1e-12

# Frames are orthonormal to this accuracy by construction.
FRAME_ORTHO_TOL = 1e-10

# The one memory budget of the process. Every estimate is checked against it
# by `check_budget`, which reads it at call time; the CLI sets it from
# --budget-mb for one command, and library callers may set it directly.
BUDGET_BYTES = 2 << 30


class MemoryBudgetError(RuntimeError):
    pass


def _mib(n: int) -> str:
    """n bytes in whole MiB, or as a power of ten for an int too large for a float."""
    try:
        return f"{n / 2 ** 20:.0f}"
    except OverflowError:
        return f"10^{round(math.log10(n) - 20 * math.log10(2))}"


def _size(n: int) -> str:
    """n bytes in whole MiB from 1 MiB on, else in KiB or bytes."""
    return f"{_mib(n)} MiB" if n >> 20 else f"{n >> 10} KiB" if n >> 10 else f"{n} bytes"


def check_budget(terms: dict[str, int], what: str) -> None:
    """Refuse `what` when its estimate, the sum of `terms`, exceeds the budget.
    Each term is the bytes (a non-negative int) that its label names, held at
    the peak; phases that alternate are one term, the max of them."""
    if sum(terms.values()) > BUDGET_BYTES:
        message = _refusal(terms, what)
        del terms  # the traceback keeps this frame, not the estimate
        raise MemoryBudgetError(message)


def _refusal(terms: dict[str, int], what: str) -> str:
    """The refusal's one line: the estimate, the budget and the three largest terms."""
    largest = sorted(terms, key=terms.get, reverse=True)[:3]
    return (f"{what} needs about {_mib(sum(terms.values()))} MiB, budget is "
            f"{_mib(BUDGET_BYTES)} MiB; largest: "
            + ", ".join([f"{k} {_size(terms[k])}" for k in largest if terms[k]]))


def unbuilt_frame_bytes(subspaces) -> int:
    """Bytes of the lazy frames of `subspaces` not built yet, with the lower
    frames a core frame builds down its `prev` chain, and their headers."""
    lazy = {}
    for s in subspaces:
        while s is not None and "frame" not in vars(s):
            lazy[id(s)] = s.dtype.itemsize * s.ambient_dim * s.dim + 160
            s = getattr(s, "prev", None)
    return sum(lazy.values())


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^D, stored as an orthonormal frame (columns)."""

    ambient_dim: int
    frame: np.ndarray  # shape (D, r), orthonormal columns
    tol_used: float

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @property
    def dtype(self) -> np.dtype:
        """The frame's dtype, known without building a lazy frame."""
        return self.frame.dtype

    def __repr__(self) -> str:
        return f"{type(self).__name__}(ambient_dim={self.ambient_dim}, dim={self.dim})"

    def __post_init__(self):
        if self.frame.ndim != 2 or self.frame.shape[0] != self.ambient_dim:
            raise ValueError(
                f"frame shape {self.frame.shape} does not match ambient dim "
                f"{self.ambient_dim}"
            )
        r = self.frame.shape[1]
        if r:
            defect = self.frame.conj().T @ self.frame
            defect.reshape(-1)[::r + 1] -= 1  # a view: no identity, difference or copy
            # the spectral norm is at most the Frobenius norm, so the SVD is
            # only needed when the cheap bound does not already accept
            if np.linalg.norm(defect) > FRAME_ORTHO_TOL:
                err = np.linalg.norm(defect, 2)
                if err > FRAME_ORTHO_TOL:
                    raise ValueError(f"frame is not orthonormal (defect {err:.3e})")


class CoordinateSubspace(Subspace):
    """The span of the unit vectors e_k of C^D for k in a strictly increasing index.

    Distinct unit vectors are orthonormal exactly, so the index check replaces
    the Gram check. ``frame`` is the real D x r 0/1 matrix, built on first
    access after a budget check.
    """

    def __init__(self, ambient_dim: int, index):
        if ambient_dim > np.iinfo(np.int64).max:
            raise ValueError(f"ambient dimension {ambient_dim} exceeds int64 indices")
        index = np.asarray(index, dtype=np.int64)
        if index.ndim != 1:
            raise ValueError("coordinate index must be one-dimensional")
        if index.size and not (index[0] >= 0 and int(index[-1]) < ambient_dim):
            raise ValueError(f"coordinate index out of range [0, {ambient_dim})")
        if np.any(index[1:] <= index[:-1]):
            raise ValueError("coordinate index must be strictly increasing")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "tol_used", RANK_ABS_FLOOR)
        object.__setattr__(self, "index", index)

    @property
    def dim(self) -> int:
        return self.index.size

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(float)

    @cached_property
    def frame(self) -> np.ndarray:
        d, r = self.ambient_dim, self.index.size
        check_budget({"frame": 8 * d * r}, f"coordinate frame of {d} x {r}")
        frame = np.zeros((d, r))
        frame[self.index, np.arange(r)] = 1.0
        return frame


class CoreSubspace(Subspace):
    """The subspace (I_d ⊗ F_prev) z of C^d ⊗ C^{D_prev}, F_prev the frame of `prev`.

    `core` holds z as a subspace of C^{d·r_prev}; I_d ⊗ F_prev is an isometry,
    so z's frame check is the only Gram check. ``frame`` is built on first
    access, with every lower frame not built yet, after one budget check of
    all of them.
    """

    def __init__(self, d: int, prev: Subspace, core: Subspace):
        if core.ambient_dim != d * prev.dim:
            raise ValueError(f"a core in C^{core.ambient_dim} does not fit C^{d} ⊗ C^{prev.dim}")
        object.__setattr__(self, "ambient_dim", d * prev.ambient_dim)
        object.__setattr__(self, "tol_used", core.tol_used)
        object.__setattr__(self, "prev", prev)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "_dtype", np.result_type(prev.dtype, core.dtype))

    @property
    def dim(self) -> int:
        return self.core.dim

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def letter_cores(self) -> np.ndarray:
        """z as d blocks Z_i (r_prev × r): the letter-i rows of the frame are F_prev Z_i."""
        d = self.ambient_dim // self.prev.ambient_dim
        return self.core.frame.reshape(d, self.prev.dim, self.dim)

    @cached_property
    def frame(self) -> np.ndarray:
        dim, r = self.ambient_dim, self.dim
        check_budget({"frames not built yet": unbuilt_frame_bytes([self])},
                     f"fiber frame of {dim} x {r} with the lower frames it builds")
        return np.matmul(self.prev.frame, self.letter_cores()).reshape(dim, r)


def _real_or_complex(m) -> np.ndarray:
    """`m` as float64 when its dtype is real (or integer), else as complex128."""
    m = np.asarray(m)
    return m.astype(np.result_type(m, float), copy=False)


def _as_matrix(vectors, ambient_dim=None) -> np.ndarray:
    m = _real_or_complex(vectors)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.size == 0:
        if ambient_dim is None:
            raise ValueError("cannot infer ambient dimension from empty input")
        m = m.reshape(ambient_dim, 0)
    return m


def span(vectors, ambient_dim: int | None = None) -> Subspace:
    """Orthonormalize the columns of `vectors` into a Subspace.

    Rank = number of singular values above RANK_REL_TOL * sigma_max, with an
    absolute floor of RANK_ABS_FLOOR when the input is (numerically) zero.
    """
    m = _as_matrix(vectors, ambient_dim)
    d = m.shape[0]
    if m.shape[1] == 0:
        return Subspace(d, np.zeros((d, 0), dtype=m.dtype), RANK_ABS_FLOOR)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    smax = s[0] if s.size else 0.0
    cutoff = RANK_REL_TOL * smax if smax > 0 else RANK_ABS_FLOOR
    cutoff = max(cutoff, RANK_ABS_FLOOR)
    r = int(np.sum(s > cutoff))
    return Subspace(d, u[:, :r].copy(), cutoff)


def full_space(dim: int) -> CoordinateSubspace:
    return CoordinateSubspace(dim, np.arange(dim))


def project(s: Subspace, v: np.ndarray) -> np.ndarray:
    """Apply the orthogonal projection onto `s` to a vector or matrix of columns.

    A coordinate subspace keeps the rows of its index, without a frame.
    """
    if isinstance(s, CoordinateSubspace):
        out = np.zeros(np.shape(v), dtype=np.result_type(v, float))
        out[s.index] = v[s.index]
        return out
    return s.frame @ (s.frame.conj().T @ v)


def factor_bytes(call: str, m: int, n: int, itemsize: int, first: bool = False) -> int:
    """Bytes of numpy's arrays at the peak of `call` on an m × n array of
    `itemsize`-byte entries, as tracemalloc counts them (s and w at `itemsize`
    too), with 1.25-2.5 KiB of headers; with `first`, the first array returned
    (U, R, Q or w) alone, which a caller keeps by indexing [0]. "svd" (thin) and
    "svd full" return U, s and Vᵀ; "qr r" R and "qr complete" Q and R, next to
    an input copy, τ and `triu`'s mask; "eigh" w and V. `gram_norm` of an m × m
    Gram holds w; `opnorm` the smaller Gram, w and a complex m's conjugate copy;
    `nullspace` a tall m's "qr r", then an SVD, the null frame and its check.
    LAPACK's own workspace is not counted (ROADMAP item 11)."""
    k, c = min(m, n), itemsize > 8
    if call == "nullspace":
        held = (2 + c + (m > n)) * itemsize * n * n  # the null frame, its check and a tall m's R
        held += factor_bytes("svd full" if m < n else "svd", k, n, itemsize)
        return max(held, (m > n) * factor_bytes("qr r", m, n, itemsize))
    # entries: the first array returned, the others, those made besides; and headers
    out, rest, made, headers = {
        "svd": (m * k, k + k * n, 0, 2048), "svd full": (m * m, k + n * n, 0, 2048),
        "qr r": (k * n, 0, m * n + k, 2560), "qr complete": (m * m, m * n, m * n + k, 2560),
        "eigh": (m, m * m, 0, 1536), "gram_norm": (0, 0, m, 1280),
        "opnorm": (0, 0, k * k + k + c * m * n, 1536)}[call]
    mask = (call == "qr r") * k * n + (call == "qr complete") * m * n
    return itemsize * out if first else itemsize * (out + rest + made) + mask + headers


def nullspace(m: np.ndarray) -> Subspace:
    """Orthonormal basis of the right null space, with span() rank semantics,
    in the dtype of `m`: with no rows the whole space, as an identity frame."""
    m = np.atleast_2d(_real_or_complex(m))
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return Subspace(cols, np.eye(cols, dtype=m.dtype), RANK_ABS_FLOOR)
    # full V is needed, U never is: a tall stack is first reduced to its
    # (cols x cols) R factor, which has the same singular values and right
    # singular vectors, and a wide one needs full_matrices for the whole V
    if rows > cols:
        m = np.linalg.qr(m, mode="r")
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    cutoff = max(RANK_REL_TOL * s[0], RANK_ABS_FLOOR)
    r = int(np.sum(s > cutoff))
    null = np.conjugate(vh[r:].T, out=np.empty((cols, cols - r), dtype=vh.dtype))
    del vh  # one copy of the null columns, and V freed before the frame check
    return Subspace(cols, null, cutoff)


# opnorm keeps a Gram whose largest diagonal entry, which bounds every product
# of two entries of m and is at most λ_max, lies within 2^±OPNORM_SAFE_EXP:
# nothing in it overflowed, and what underflowed is below ε·λ_max by hundreds
# of binary orders. Otherwise m is scaled by a power of two and the Gram formed
# again.
OPNORM_SAFE_EXP = 512


def gram_norm(gram: np.ndarray) -> float:
    """√λ_max of a Hermitian PSD Gram, from `eigvalsh` on its lower triangle;
    0 for an empty Gram or a largest eigenvalue that roundoff left below 0."""
    if gram.size == 0:
        return 0.0
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def opnorm(m: np.ndarray) -> float:
    """Largest singular value: the root of the largest eigenvalue of the smaller
    Gram, m†m or m m† (`gram_norm`). When that Gram's diagonal leaves
    2^±OPNORM_SAFE_EXP, m is first scaled by a power of two, exactly. NaN or inf
    entries give nan, an empty matrix 0."""
    m = _real_or_complex(np.atleast_2d(m))
    if m.size == 0:
        return 0.0
    if m.shape[0] < m.shape[1]:
        m = m.T  # the same norm, and m m† is the smaller Gram
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the range test
        gram = m.conj().T @ m
    if 2.0 ** -OPNORM_SAFE_EXP <= gram.diagonal().real.max() <= 2.0 ** OPNORM_SAFE_EXP:
        return gram_norm(gram)
    del gram  # zero, not finite, or squares that may under- or overflow
    # the largest |real or imaginary part|, within √2 of the largest entry,
    # from views: no temporary of m's size
    parts = (m.real, m.imag) if m.dtype.kind == "c" else (m,)
    big = float(np.max([p.max() for p in parts] + [-p.min() for p in parts]))
    if not math.isfinite(big):
        return math.nan
    if big == 0.0:
        return 0.0
    exp = math.frexp(big)[1]  # by 2^-exp in two exact steps: 2^-exp may not be a float
    m = m * math.ldexp(1.0, -exp // 2)
    m *= math.ldexp(1.0, -exp - (-exp // 2))
    return math.ldexp(gram_norm(m.conj().T @ m), exp)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues below -1e-12 (or a relative 1e-9) raise; small negatives are
    clamped to zero.
    """
    m = np.asarray(m, dtype=complex)
    herm_defect = opnorm(m - m.conj().T)
    if herm_defect > 1e-9 * max(1.0, opnorm(m)):
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    if w.size and w[0] < -max(1e-12, 1e-9 * max(1.0, abs(w[-1]))):
        raise ValueError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
