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
