import numpy as np
import pytest

from spsys import linalg, ncpoly
from spsys.ncpoly import NCPoly, Word

from conftest import random_homogeneous_poly
from oracles import homogeneous_component, inclusion_residual


def test_word_validates_letters():
    Word((1, 2, 1), 2)
    with pytest.raises(ValueError):
        Word((0, 1), 2)
    with pytest.raises(ValueError):
        Word((3,), 2)


def test_word_index_round_trip():
    d, n = 3, 4
    for idx in range(d**n):
        w = ncpoly.index_word(idx, n, d)
        assert ncpoly.word_index(w, d) == idx


def test_word_index_is_lexicographic():
    # (1,1) < (1,2) < (2,1) < (2,2)
    words = list(ncpoly.all_words(2, 2))
    assert words == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_monomial_eval_on_basis_is_unit_vector():
    p = NCPoly.monomial(2, (2, 1), 3.0)
    v = p.eval_on_basis()
    expected = np.zeros(4, dtype=complex)
    expected[ncpoly.word_index((2, 1), 2)] = 3.0
    assert np.allclose(v, expected)


def test_from_vector_round_trip():
    rng = np.random.default_rng(0)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    p = NCPoly.from_vector(vec, 3, 2)
    assert np.allclose(p.eval_on_basis(), vec)


def test_from_rows_matches_from_vector_and_shares_its_words():
    rng = np.random.default_rng(3)
    rows = (rng.normal(size=(4, 27)) + 1j * rng.normal(size=(4, 27))) * (rng.random((4, 27)) < 0.5)
    polys = NCPoly.from_rows(rows, 3, 3)
    for p, row in zip(polys, rows):
        assert p.terms == NCPoly.from_vector(row, 3, 3).terms
        assert list(p.terms) == sorted(p.terms)
    # a word two polynomials share is one tuple
    common = set(polys[0].terms) & set(polys[1].terms)
    assert common
    for w in common:
        assert next(u for u in polys[0].terms if u == w) is next(u for u in polys[1].terms if u == w)
    assert NCPoly.from_rows(np.ones((1, 1)), 0, 2)[0].terms == {(): 1.0}
    with pytest.raises(ValueError, match="rows of 8 coordinates"):
        NCPoly.from_rows(np.ones((2, 4)), 3, 2)


def _word_by_word(p, mats):
    """sum c_w T^w in term order, each product made from its first letter on."""
    real = p.is_real()
    out = np.zeros(mats[0].shape, dtype=np.result_type(float if real else complex, *mats))
    for w, c in p.terms.items():
        acc = mats[w[0] - 1] if w else np.eye(mats[0].shape[0])
        for a in w[1:]:
            acc = acc @ mats[a - 1]
        out += (c.real if real else c) * acc
    return out


@pytest.mark.parametrize("real", [True, False])
def test_values_on_tuple_shares_word_products_and_matches_each_polynomial(real):
    # dense polynomials of one degree, next to sparse and inhomogeneous ones:
    # every value is eval_on_tuple's, and the word-by-word sum, bit for bit when
    # the terms are in lexicographic order (the sums then run in the same order)
    rng = np.random.default_rng(4 + real)
    rows = rng.normal(size=(5, 16)) * (rng.random((5, 16)) < 0.8)
    if not real:
        rows = rows + 1j * rng.normal(size=(5, 16))
    mats = [rng.normal(size=(6, 6)) for _ in range(2)]
    polys = NCPoly.from_rows(rows, 4, 2) + [
        NCPoly(2, {(2, 1, 1): 3.0, (): -1.0, (1,): 0.5}), NCPoly.monomial(2, (2, 2, 2, 2, 1))]
    values = NCPoly.values_on_tuple(polys, mats)
    assert values.shape == (7, 6, 6)
    assert values.dtype == (np.float64 if real else np.complex128)
    for p, v in zip(polys, values):
        assert np.array_equal(p.eval_on_tuple(mats), v)
        if list(p.terms) == sorted(p.terms):
            assert np.array_equal(v, _word_by_word(p, mats))
        else:
            assert np.allclose(v, _word_by_word(p, mats), rtol=1e-13, atol=1e-13)
    assert NCPoly.values_on_tuple([NCPoly(2, {(1,): 1.0})], mats).dtype == np.float64


def test_values_held_bounds_the_traced_peak():
    # the values next to the held word products (the prefixes kept for the
    # next word, a product and the next one) and the word index
    import tracemalloc
    rng = np.random.default_rng(5)
    h = 32
    mats = [rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h)) for _ in range(2)]
    cases = [NCPoly.from_rows(rng.normal(size=(3, 2**7)), 7, 2),
             [NCPoly.monomial(2, w) for w in ncpoly.all_words(5, 2)],
             [NCPoly.monomial(2, (1, 2, 1, 2, 2, 1))]]
    for polys in cases:
        products, index = NCPoly.values_held(polys)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            NCPoly.values_on_tuple(polys, mats)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        estimate = 16 * h * h * (len(polys) + products) + index
        assert peak <= estimate <= 2 * peak
    assert NCPoly.values_held(cases[0])[0] == 2 + 6  # words sharing 6 letters
    assert NCPoly.values_held(cases[2])[0] == 2


def test_poly_arithmetic_cancels():
    p = NCPoly.monomial(2, (1, 2))
    q = NCPoly.monomial(2, (1, 2))
    assert (p - q).is_zero()
    assert not (p + q).is_zero()
    assert (2.0 * p).terms[(1, 2)] == 4.0 or (2.0 * p).terms[(1, 2)] == 2.0


def test_degree_and_homogeneity():
    p = NCPoly.monomial(2, (1, 2)) + NCPoly.monomial(2, (2, 1))
    assert p.degree() == 2
    assert p.is_homogeneous()
    mixed = p + NCPoly.monomial(2, (1,))
    assert not mixed.is_homogeneous()


def test_eval_on_tuple_matches_matrix_product():
    rng = np.random.default_rng(1)
    mats = tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                 for _ in range(2))
    p = NCPoly.monomial(2, (1, 2), 2.0) + NCPoly.monomial(2, (2, 2), -1.0)
    expect = 2.0 * mats[0] @ mats[1] - mats[1] @ mats[1]
    assert np.allclose(p.eval_on_tuple(mats), expect)


def test_commutator_gens_count_and_degree():
    for d in (2, 3, 4):
        gens = ncpoly.commutator_gens(d)
        assert gens.d == d
        assert len(gens.gens) == d * (d - 1) // 2
        assert all(g.degree() == 2 for g in gens.gens)


def test_commutator_annihilates_commuting_tuple():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4))
    mats = (a, a @ a)
    for g in ncpoly.commutator_gens(2).gens:
        assert np.linalg.norm(g.eval_on_tuple(mats)) < 1e-10


def test_q_relation_gens_match_convention():
    q = np.array([[1, 2.0], [0.5, 1]], dtype=complex)
    gens = ncpoly.q_relation_gens(q)
    assert len(gens.gens) == 1
    g = gens.gens[0]
    # x1 x2 - q12 x2 x1
    assert g.terms[(1, 2)] == pytest.approx(1.0)
    assert g.terms[(2, 1)] == pytest.approx(-2.0)


def test_forbidden_word_gens_are_monomials():
    gens = ncpoly.forbidden_word_gens(2, [(2, 2), (1, 2, 1)])
    words = sorted(tuple(g.terms) for g in gens.gens)
    assert words == [((1, 2, 1),), ((2, 2),)]


def test_homogeneous_component_spans_commutator_complement():
    # at level n the commutator ideal component has codimension C(n+d-1, n)
    import math
    d, n = 2, 4
    vecs = homogeneous_component(ncpoly.commutator_gens(d), n)
    comp = linalg.span(np.column_stack(vecs))
    sym_dim = math.comb(n + d - 1, n)
    assert comp.dim == d**n - sym_dim


def test_homogeneous_component_contains_embedded_generators():
    rng = np.random.default_rng(3)
    gens = ncpoly.IdealGens(2, [random_homogeneous_poly(rng, 2, 2)])
    vecs = homogeneous_component(gens, 3)
    comp = linalg.span(np.column_stack(vecs))
    g = gens.gens[0].eval_on_basis()
    for side in ("left", "right"):
        for a in (1, 2):
            e = np.zeros(2)
            e[a - 1] = 1.0
            emb = np.kron(e, g) if side == "left" else np.kron(g, e)
            assert inclusion_residual(comp, linalg.span(emb.reshape(-1, 1))) < 1e-9
