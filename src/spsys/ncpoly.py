"""Noncommutative polynomials in d letters, with matrix and basis evaluation.

Words are tuples of 1-based letters. A polynomial is a sparse map from words
to complex coefficients; only exact zeros are dropped, so numerically tiny
coefficients survive and stay visible to the rank machinery downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
        terms = {}
        for i, c in enumerate(vec):
            if c != 0:
                terms[index_word(i, n, d)] = c
        return cls(d, terms)

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
        """Evaluate on a tuple of square matrices: sum of c_w * T^w.

        The empty word contributes c * I. Real coefficients on real matrices
        give a float64 result, anything else complex128.
        """
        real = self.is_real()
        mats = [np.asarray(m) for m in mats]
        if len(mats) != self.d:
            raise ValueError(f"expected {self.d} matrices, got {len(mats)}")
        h = mats[0].shape[0]
        for m in mats:
            if m.shape != (h, h):
                raise ValueError("matrices must be square and of equal size")
        out = np.zeros((h, h), dtype=np.result_type(float if real else complex, *mats))
        for w, c in self.terms.items():
            # a word's product starts at its first letter: I @ T equals T
            acc = mats[w[0] - 1] if w else np.eye(h)
            for a in w[1:]:
                acc = acc @ mats[a - 1]
            out += (c.real if real else c) * acc
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
