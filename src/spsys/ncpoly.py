"""Noncommutative polynomials in d letters, with matrix and basis evaluation.

Words are tuples of 1-based letters. A polynomial is a sparse map from words
to complex coefficients; only exact zeros are dropped, so numerically tiny
coefficients survive and stay visible to the rank machinery downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# The word index of `NCPoly.values_on_tuple` in tracemalloc's count (CPython
# 3.11, 64-bit): a dict slot, a list and a sorted slot a word; a list slot a term
WORD_INDEX_BYTES = 160
WORD_USE_BYTES = 12


@dataclass(frozen=True)
class Word:
    """A word in the letters 1..d."""

    letters: tuple[int, ...]
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need at least one letter")
        for a in self.letters:
            if not 1 <= a <= self.d:
                raise ValueError(f"letter {a} outside 1..{self.d}")

    def __len__(self) -> int:
        return len(self.letters)

    def index(self) -> int:
        """Position of e_w in the lexicographic basis of (C^d)^{⊗|w|}."""
        return word_index(self.letters, self.d)


def word_index(letters, d: int) -> int:
    idx = 0
    for a in letters:
        idx = idx * d + (a - 1)
    return idx


def index_word(idx: int, n: int, d: int) -> tuple[int, ...]:
    letters = []
    for _ in range(n):
        letters.append(idx % d + 1)
        idx //= d
    return tuple(reversed(letters))


def _shared(u: tuple[int, ...], w: tuple[int, ...]) -> int:
    """Length of the longest common prefix of two words."""
    return next((j for j, (a, b) in enumerate(zip(u, w)) if a != b), min(len(u), len(w)))


def all_words(n: int, d: int):
    """All words of length n in lexicographic order."""
    return (index_word(i, n, d) for i in range(d**n))


class NCPoly:
    """Sparse noncommutative polynomial: {word: coefficient}."""

    def __init__(self, d: int, terms: dict | None = None):
        self.d = d
        self.terms: dict[tuple[int, ...], complex] = {}
        if terms:
            for w, c in terms.items():
                w = tuple(w)
                Word(w, d)  # validates letters
                c = complex(c)
                if c != 0:
                    self.terms[w] = self.terms.get(w, 0) + c
                    if self.terms[w] == 0:
                        del self.terms[w]

    @classmethod
    def monomial(cls, d: int, letters, coeff=1.0) -> "NCPoly":
        return cls(d, {tuple(letters): coeff})

    @classmethod
    def from_vector(cls, vec: np.ndarray, n: int, d: int) -> "NCPoly":
        """Homogeneous degree-n polynomial from lexicographic coordinates."""
        vec = np.asarray(vec, dtype=complex).ravel()
        if vec.size != d**n:
            raise ValueError(f"expected {d ** n} coordinates, got {vec.size}")
        return cls.from_rows(vec[None], n, d)[0]

    @classmethod
    def from_rows(cls, rows: np.ndarray, n: int, d: int) -> list["NCPoly"]:
        """One homogeneous degree-n polynomial per row of lexicographic coordinates
        (k × d^n); the polynomials share one tuple per word."""
        rows = np.asarray(rows, dtype=complex)
        if rows.ndim != 2 or rows.shape[1] != d**n:
            raise ValueError(f"expected rows of {d ** n} coordinates, got shape {rows.shape}")
        used = np.flatnonzero(np.any(rows != 0, axis=0))
        digits = used[:, None] // d ** np.arange(n - 1, -1, -1) % d + 1
        words = dict(zip(used.tolist(), map(tuple, digits.tolist())))
        polys = []
        for row in rows:
            nz = np.flatnonzero(row)
            p = cls(d)  # the letters are 1..d by construction
            p.terms = dict(zip(map(words.__getitem__, nz.tolist()), row[nz].tolist()))
            polys.append(p)
        return polys

    def degree(self) -> int:
        """Maximal word length (0 for the zero polynomial)."""
        return max((len(w) for w in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        lengths = {len(w) for w in self.terms}
        return len(lengths) <= 1

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        """Whether every coefficient's imaginary part is exactly 0."""
        return all(c.imag == 0 for c in self.terms.values())

    def __add__(self, other: "NCPoly") -> "NCPoly":
        if self.d != other.d:
            raise ValueError("letter counts differ")
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
            if out[w] == 0:
                del out[w]
        return NCPoly(self.d, out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "NCPoly":
        scalar = complex(scalar)
        if scalar == 0:
            return NCPoly(self.d)
        return NCPoly(self.d, {w: scalar * c for w, c in self.terms.items()})

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        """Concatenation product."""
        if self.d != other.d:
            raise ValueError("letter counts differ")
        out: dict[tuple[int, ...], complex] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return NCPoly(self.d, out)

    def __repr__(self) -> str:
        if not self.terms:
            return "NCPoly(0)"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            mono = "".join(f"x{a}" for a in w) or "1"
            bits.append(f"({self.terms[w]:.4g})*{mono}")
        return "NCPoly(" + " + ".join(bits) + ")"

    def eval_on_tuple(self, mats) -> np.ndarray:
        """Evaluate on a tuple of square matrices: sum of c_w * T^w
        (`values_on_tuple`)."""
        return NCPoly.values_on_tuple([self], mats)[0]

    @staticmethod
    def values_held(polys) -> tuple[int, int]:
        """What `values_on_tuple` holds next to its values: the most word products
        at once (the prefixes kept for the next word, and a product with the next
        one or a term), and the bytes of its word index and array headers."""
        words = sorted({w for p in polys for w in p.terms})
        uses = sum(len(p.terms) for p in polys)
        return (2 + max(map(_shared, words, words[1:]), default=0),
                WORD_INDEX_BYTES * len(words) + WORD_USE_BYTES * uses + 2048)

    @staticmethod
    def values_on_tuple(polys, mats) -> np.ndarray:
        """[p(T) for p in polys], stacked k × h × h, with one product T^w per word
        of their terms.

        The words run in lexicographic order, and each product starts from the
        longest prefix it shares with the word before, which is held until
        then, so d^n words of one degree cost about d^n·d/(d-1) matmuls between
        all the polynomials, however many there are. A product is left to right,
        the empty word's is I, and each value sums c_w T^w over its terms in
        lexicographic order. Real coefficients on real matrices give float64
        values, anything else complex128.
        """
        mats = [np.asarray(m) for m in mats]
        for p in polys:
            if len(mats) != p.d:
                raise ValueError(f"expected {p.d} matrices, got {len(mats)}")
        h = mats[0].shape[0]
        for m in mats:
            if m.shape != (h, h):
                raise ValueError("matrices must be square and of equal size")
        real = all(p.is_real() for p in polys)
        out = np.zeros((len(polys), h, h), dtype=np.result_type(float if real else complex, *mats))
        uses: dict[tuple[int, ...], list[int]] = {}
        for i, p in enumerate(polys):
            for w in p.terms:
                uses.setdefault(w, []).append(i)
        words = sorted(uses)
        kept: list[np.ndarray] = []  # T^{w[:j]}, j = 1..len(kept), for the next word
        for t, w in enumerate(words):
            keep = _shared(w, words[t + 1]) if t + 1 < len(words) else 0
            product = kept[-1] if kept else None
            for j in range(len(kept), len(w)):
                letter = mats[w[j] - 1]
                product = letter if product is None else product @ letter
                if j < keep:
                    kept.append(product)
            if product is None:  # the empty word
                product = np.eye(h)
            for i in uses[w]:
                c = polys[i].terms[w]
                out[i] += (c.real if real else c) * product
            del kept[keep:]
        return out

    def eval_on_basis(self) -> np.ndarray:
        """Coordinates of p(e) in the lexicographic word basis of (C^d)^{⊗n}.

        Requires p homogeneous of degree n ≥ 0. Float64 when every coefficient
        is real, else complex128.
        """
        if not self.is_homogeneous():
            raise ValueError("polynomial is not homogeneous")
        n, real = self.degree(), self.is_real()
        vec = np.zeros(self.d**n, dtype=float if real else complex)
        for w, c in self.terms.items():
            vec[word_index(w, self.d)] = c.real if real else c
        return vec


@dataclass
class IdealGens:
    """Homogeneous generators (degree >= 1) of a two-sided ideal."""

    d: int
    gens: list[NCPoly] = field(default_factory=list)

    def __post_init__(self):
        for g in self.gens:
            if g.d != self.d:
                raise ValueError("generator over wrong letter count")
            if g.is_zero():
                raise ValueError("zero generator")
            if not g.is_homogeneous():
                raise ValueError("generators must be homogeneous")
            if g.degree() < 1:
                raise ValueError("generators must have degree >= 1")


def commutator_gens(d: int) -> IdealGens:
    """Generators x_i x_j - x_j x_i for i < j."""
    gens = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            gens.append(NCPoly(d, {(i, j): 1.0, (j, i): -1.0}))
    return IdealGens(d, gens)


def q_relation_gens(q: np.ndarray) -> IdealGens:
    """Generators x_i x_j - q_ij x_j x_i for i < j."""
    q = np.asarray(q, dtype=complex)
    d = q.shape[0]
    gens = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            gens.append(NCPoly(d, {(i, j): 1.0, (j, i): -q[i - 1, j - 1]}))
    return IdealGens(d, gens)


def forbidden_word_gens(d: int, words) -> IdealGens:
    """Monomial generators, one per forbidden word."""
    return IdealGens(d, [NCPoly.monomial(d, w) for w in words])
