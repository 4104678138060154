import math
import tracemalloc

import numpy as np
import pytest

from spsys import fock, formats, linalg, ncpoly, reps, subproduct
from spsys.ncpoly import IdealGens, NCPoly
from spsys.linalg import MemoryBudgetError
from spsys.subproduct import SubshiftSpec

from conftest import random_homogeneous_poly
from oracles import (
    dense_axiom_residuals, dense_maximal_with_fibers, dense_unit_residuals,
    frame_letter_blocks, homogeneous_component, inclusion_residual, qr_level_roots,
    subspace_distance, zero_space,
)


def brute_legal_words(d, forbidden, n):
    """Independent legality oracle: scan every word for forbidden subwords."""
    out = []
    for w in ncpoly.all_words(n, d):
        bad = any(
            w[i:i + len(f)] == tuple(f)
            for f in forbidden
            for i in range(n - len(f) + 1)
        )
        if not bad:
            out.append(w)
    return out


# ---------------------------------------------------------------------------
# subshift spec

def test_subshift_spec_normalizes_redundant_words():
    spec = SubshiftSpec(2, ((2, 2), (1, 2, 2), (2, 2)))
    assert spec.forbidden == ((2, 2),)
    assert spec.step == 1


def test_subshift_spec_rejects_empty_word():
    with pytest.raises(ValueError):
        SubshiftSpec(2, ((),))


def test_legal_words_match_brute_force():
    spec = SubshiftSpec(3, ((1, 2), (3, 3, 1), (2, 2, 2)))
    for n in range(6):
        assert spec.legal_words(n) == brute_legal_words(3, spec.forbidden, n)


def test_followers_extend_legally():
    spec = SubshiftSpec(2, ((2, 2),))
    assert spec.followers(2, 1) == [(1,)]
    assert spec.followers(1, 1) == [(1,), (2,)]


# ---------------------------------------------------------------------------
# construction routes

def test_symmetric_dims_are_binomial(symmetric2_6):
    assert symmetric2_6.dims() == [math.comb(n + 1, n) for n in range(7)]


def test_symmetric_three_letters_dims():
    sys3 = subproduct.from_ideal(ncpoly.commutator_gens(3), 5)
    assert sys3.dims() == [math.comb(n + 2, n) for n in range(6)]


def test_golden_mean_dims_are_fibonacci(golden_7):
    assert golden_7.dims() == [1, 2, 3, 5, 8, 13, 21, 34]


def test_golden_fibers_are_coordinate_subspaces(golden_7):
    spec = golden_7.provenance["spec"]
    for n in range(1, 5):
        frame = golden_7.fiber(n).frame
        legal = spec.legal_words(n)
        assert frame.shape[1] == len(legal)
        for j, w in enumerate(legal):
            e = np.zeros(2**n)
            e[ncpoly.word_index(w, 2)] = 1.0
            assert np.allclose(frame[:, j], e)


def test_constant_dimension_two_example():
    sys_ = subproduct.from_subshift(SubshiftSpec(2, ((1, 2), (2, 2))), 6)
    assert sys_.dims() == [1, 2, 2, 2, 2, 2, 2]


def test_interrupted_run_family_literal_list():
    # forbidding only the four listed words leaves an extra legal word of
    # length six (2 followed by five 1s then 2 is NOT forbidden), so the
    # n+1 pattern breaks exactly at the first level past the listed lengths
    words = ((2, 2), (2, 1, 2), (2, 1, 1, 2), (2, 1, 1, 1, 2))
    sys_ = subproduct.from_subshift(SubshiftSpec(2, words), 6)
    assert sys_.dims() == [1, 2, 3, 4, 5, 6, 8]


def test_interrupted_run_family_depth_complete():
    # with every word "2, run of 1s, 2" of length <= depth forbidden the
    # legal words are 1^n and 1^a 2 1^b, giving dimension n + 1
    depth = 6
    words = tuple((2,) + (1,) * j + (2,) for j in range(depth - 1))
    sys_ = subproduct.from_subshift(SubshiftSpec(2, words), depth)
    assert sys_.dims() == [n + 1 for n in range(depth + 1)]


def test_dead_subshift_flagged_and_zero():
    sys_ = subproduct.from_subshift(SubshiftSpec(2, ((1,), (2,))), 4)
    assert sys_.dims() == [1, 0, 0, 0, 0]
    assert sys_.provenance["dead_from"] == 1
    assert subproduct.verify_axioms(sys_)["ok"]


def test_qmatrix_route_matches_ideal_route():
    q = np.array([[1, 2.0], [0.5, 1]], dtype=complex)
    via_q = subproduct.from_qmatrix(q, 6)
    via_ideal = subproduct.from_ideal(ncpoly.q_relation_gens(q), 6)
    for n in range(7):
        assert subspace_distance(via_q.fiber(n), via_ideal.fiber(n)) < 1e-9


def test_qmatrix_all_ones_is_symmetric(symmetric2_6):
    sys_q = subproduct.from_qmatrix(np.ones((2, 2), dtype=complex), 6)
    for n in range(7):
        assert subspace_distance(sys_q.fiber(n), symmetric2_6.fiber(n)) < 1e-9


def test_qmatrix_rejects_inadmissible():
    with pytest.raises(ValueError):
        subproduct.from_qmatrix(np.array([[1, 2.0], [2.0, 1]], dtype=complex), 3)
    with pytest.raises(ValueError):
        subproduct.from_qmatrix(np.array([[1, 0.0], [0.0, 1]], dtype=complex), 3)


def test_quadratic_commutator_matrix_is_symmetric(symmetric2_6):
    a = np.array([[0, 1], [-1, 0]], dtype=complex)
    sys_a = subproduct.from_quadratic(a, 6)
    for n in range(7):
        assert subspace_distance(sys_a.fiber(n), symmetric2_6.fiber(n)) < 1e-9


def test_quadratic_zero_matrix_is_full(full2_6):
    sys_0 = subproduct.from_quadratic(np.zeros((2, 2)), 6)
    assert sys_0.dims() == full2_6.dims()


def test_full_system_dims():
    assert subproduct.from_full(3, 4).dims() == [1, 3, 9, 27, 81]
    assert subproduct.from_full(1, 4).dims() == [1, 1, 1, 1, 1]


def test_degree_one_generator_keeps_one_letter():
    gens = IdealGens(2, [NCPoly.monomial(2, (1,))])
    sys_ = subproduct.from_ideal(gens, 5)
    assert sys_.dims() == [1, 1, 1, 1, 1, 1]


def test_generators_spanning_all_letters_give_zero_fibers():
    gens = IdealGens(2, [NCPoly.monomial(2, (1,)), NCPoly.monomial(2, (2,))])
    sys_ = subproduct.from_ideal(gens, 4)
    assert sys_.dims() == [1, 0, 0, 0, 0]
    assert subproduct.verify_axioms(sys_)["ok"]


Q3 = np.array([[1, 2, 0.5j], [0.5, 1, 3], [-2j, 1 / 3, 1]], dtype=complex)
QUAD_RANDOM = np.array([[0.3 - 1.1j, 0.8 + 0.2j], [-0.5 + 0.7j, 1.4 - 0.3j]])
QUAD_COMMUTATOR = np.array([[0, 1], [-1, 0]], dtype=complex)


def _quadratic_relation(a):
    return NCPoly(2, {(i + 1, j + 1): a[i, j] for i in range(2) for j in range(2)})


def _generator_systems(depth):
    """(system, generators written out independently) for every generator route."""
    rng = np.random.default_rng(31)
    ideals = [
        ncpoly.commutator_gens(2),
        ncpoly.commutator_gens(3),
        IdealGens(2, [random_homogeneous_poly(rng, 2, 2), random_homogeneous_poly(rng, 2, 3)]),
        IdealGens(2, [random_homogeneous_poly(rng, 2, 3)]),
        IdealGens(2, [NCPoly.monomial(2, (1,))]),
        IdealGens(2, [NCPoly.monomial(2, (1,)), NCPoly.monomial(2, (2,))]),
    ]
    out = [(subproduct.from_ideal(g, depth), g) for g in ideals]
    q_gens = IdealGens(3, [NCPoly(3, {(i, j): 1.0, (j, i): -Q3[i - 1, j - 1]})
                           for i in range(1, 4) for j in range(i + 1, 4)])
    out.append((subproduct.from_qmatrix(Q3, depth), q_gens))
    for a in (QUAD_RANDOM, QUAD_COMMUTATOR):
        out.append((subproduct.from_quadratic(a, depth), IdealGens(2, [_quadratic_relation(a)])))
    return out


def test_generator_systems_match_the_ideal_component_oracle():
    for system, gens in _generator_systems(5):
        for n in range(6):
            vecs = homogeneous_component(gens, n)
            oracle = linalg.complement(linalg.span(
                np.column_stack(vecs) if vecs else np.zeros((system.d**n, 0)),
                ambient_dim=system.d**n))
            assert system.dim(n) == oracle.dim
            assert subspace_distance(system.fiber(n), oracle) <= 1e-10


def test_qmatrix_and_quadratic_match_maximal_with_fibers():
    # against the dense completion, which shares no step with the ideal route
    for system, gens in _generator_systems(6)[-3:]:
        d = system.d
        level2 = linalg.complement(linalg.span(
            np.column_stack([g.eval_on_basis() for g in gens.gens])))
        dense = dense_maximal_with_fibers(d, [linalg.full_space(d), level2], 6)
        assert system.kind in ("qmatrix", "quadratic")
        assert system.dims() == [f.dim for f in dense]
        for n in range(7):
            assert subspace_distance(system.fiber(n), dense[n]) <= 1e-10


def test_commutator_three_letters_depth_twelve_on_cores_in_small_memory():
    tracemalloc.start()
    try:
        system = subproduct.from_ideal(ncpoly.commutator_gens(3), 12)
        fock.build_shifts(fock.build_fock(system))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.dims() == [math.comb(n + 2, 2) for n in range(13)]
    assert all("frame" not in vars(f) for f in system.fibers[1:])
    assert peak < 64 << 20


def test_core_frame_beyond_budget_is_refused_without_building(monkeypatch):
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 8 << 20)
    system = subproduct.from_ideal(ncpoly.commutator_gens(3), 10)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError, match="fiber frame"):
            system.fiber(10).frame  # 3^10 x 66 complex is about 59 MiB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all("frame" not in vars(f) for f in system.fibers[1:])
    assert peak < 1 << 20


def test_core_frame_budget_counts_the_lower_frames_it_builds(monkeypatch):
    # the top frame is half of the traced peak: every lower frame is built too
    def top_fiber():
        return subproduct.from_ideal(ncpoly.commutator_gens(2), 14).fiber(14)

    fiber = top_fiber()
    tracemalloc.start()
    try:
        fiber.frame
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(linalg, "BUDGET_BYTES", peak)
    assert top_fiber().frame.shape == fiber.frame.shape
    monkeypatch.setattr(linalg, "BUDGET_BYTES", int(peak * 0.999))
    with pytest.raises(MemoryBudgetError, match="fiber frame"):
        top_fiber().frame


def _golden_chain(k):
    """The golden-mean fibers X(1..k), on word indices."""
    return list(subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), k).fibers[1:])


def _symmetric_chain(d):
    """The full X(1) and the symmetric X(2), the complement of the commutators."""
    commutators = [g.eval_on_basis() for g in ncpoly.commutator_gens(d).gens]
    return [linalg.full_space(d), linalg.complement(linalg.span(np.column_stack(commutators)))]


@pytest.mark.parametrize("build", [
    lambda: subproduct.from_ideal(ncpoly.commutator_gens(3), 12),
    lambda: subproduct.from_qmatrix(Q3, 8),
    lambda: subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 20),
    lambda: subproduct.maximal_with_fibers(2, _golden_chain(3), 12),
    lambda: subproduct.maximal_with_fibers(3, _symmetric_chain(3), 9),
], ids=["commutator3-12", "qmatrix3-8", "golden-20", "golden123-fibers-12",
        "symmetric3-fibers-9"])
def test_construction_budget_bounds_the_traced_peak(build, monkeypatch):
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(linalg, "BUDGET_BYTES", peak - 1)
    with pytest.raises(MemoryBudgetError):
        build()
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 2 * peak)
    build()


def test_prescribed_level_budget_bounds_the_traced_peak(monkeypatch):
    # a `build --out` file read back: every level is prescribed as a dense
    # frame, and the top prescribed step holds the largest estimate
    chain = [linalg.Subspace(f.ambient_dim, f.frame, f.tol_used) for f in _golden_chain(10)]
    tracemalloc.start()
    try:
        subproduct.maximal_with_fibers(2, chain, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(linalg, "BUDGET_BYTES", peak - 1)
    with pytest.raises(MemoryBudgetError, match="prescribed fiber at level 10"):
        subproduct.maximal_with_fibers(2, chain, 10)
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 2 * peak)
    subproduct.maximal_with_fibers(2, chain, 10)


def test_maximal_with_fibers_reproduces_step_one_subshift(golden_6):
    prescribed = [golden_6.fiber(1), golden_6.fiber(2)]
    sys_ = subproduct.maximal_with_fibers(2, prescribed, 6)
    for n in range(7):
        assert subspace_distance(sys_.fiber(n), golden_6.fiber(n)) < 1e-9


def _random_level2_chain():
    """The full X(1) and a random 5-dim complex X(2) in C^9."""
    rng = np.random.default_rng(0)
    return [linalg.full_space(3), linalg.span(rng.normal(size=(9, 5)) + 1j * rng.normal(size=(9, 5)))]


def _one_complement_chain(vector):
    """The full X(1) and the complement of one vector in C^4."""
    return [linalg.full_space(2), linalg.complement(linalg.span(np.array([vector], dtype=float).T))]


FIBERS_CASES = {
    "golden12-6": (2, lambda: _golden_chain(2), 6, [1, 2, 3, 5, 8, 13, 21]),
    "golden123-8": (2, lambda: _golden_chain(3), 8, [1, 2, 3, 5, 8, 13, 21, 34, 55]),
    "golden12-frames-4": (2, lambda: [linalg.span(f.frame) for f in _golden_chain(2)], 4,
                          [1, 2, 3, 5, 8]),
    "symmetric2-9": (2, lambda: _symmetric_chain(2), 9, list(range(1, 11))),
    "symmetric3-5": (3, lambda: _symmetric_chain(3), 5, [1, 3, 6, 10, 15, 21]),
    "random-level2-d3-5": (3, _random_level2_chain, 5, [1, 3, 5, 3, 0, 0]),
    "half-commutator-5": (2, lambda: _one_complement_chain([0, 1.0, -0.5, 0]), 5,
                          [1, 2, 3, 4, 5, 6]),
    "no-21-4": (2, lambda: _one_complement_chain([0, 0, 1.0, 0]), 4, [1, 2, 3, 4, 5]),
    "full-level1-2": (2, lambda: [linalg.full_space(2)], 2, [1, 2, 4]),
    # a zero prescribed level: nothing is left to constrain above it
    "dead-level2-4": (2, lambda: [linalg.span(np.array([[1.0], [0.0]])), zero_space(4)],
                      4, [1, 1, 0, 0, 0]),
}


@pytest.mark.parametrize("case", sorted(FIBERS_CASES))
def test_maximal_with_fibers_matches_the_dense_completion(case):
    d, chain, depth, dims = FIBERS_CASES[case]
    prescribed = chain()
    system = subproduct.maximal_with_fibers(d, prescribed, depth)
    # a core chain, with no frame built above the prescribed levels
    assert system.route == "core"
    assert all("frame" not in vars(f) for f in system.fibers[len(prescribed) + 1:])
    ref = dense_maximal_with_fibers(d, prescribed, depth)
    assert system.dims() == [f.dim for f in ref] == dims
    for n in range(depth + 1):
        assert subspace_distance(system.fiber(n), ref[n]) <= 1e-12
    # the prescribed levels keep their frames, so `build --out` writes them back
    for n, f in enumerate(prescribed, 1):
        assert np.max(np.abs(system.fiber(n).frame - f.frame), initial=0.0) <= 1e-12


@pytest.mark.parametrize("case", sorted(FIBERS_CASES))
def test_maximal_with_fibers_records_its_derived_generators(case):
    # one generator of degree n for each direction of N_n ⊖ F_n, and the ideal
    # system of those generators is the completion itself
    d, chain, depth, dims = FIBERS_CASES[case]
    prescribed = chain()
    system = subproduct.maximal_with_fibers(d, prescribed, depth)
    gens = system.provenance["gens"]
    assert gens.d == d and all(g.degree() <= len(prescribed) for g in gens.gens)
    ideal = subproduct.from_ideal(gens, depth)
    assert ideal.dims() == system.dims() == dims
    for n in range(depth + 1):
        assert subspace_distance(ideal.fiber(n), system.fiber(n)) <= 1e-12


def test_maximal_with_fibers_rejects_bad_inclusion():
    # prescribe a level-2 fiber that is not inside E (x) X(1)
    e1 = linalg.span(np.array([[1.0], [0.0]]))
    bad2 = linalg.span(np.array([[0.0], [0.0], [0.0], [1.0]]))
    with pytest.raises(ValueError, match=r"X\(2\) is not inside .*: residual 1\.000e\+00"):
        subproduct.maximal_with_fibers(2, [e1, bad2], 4)


# ---------------------------------------------------------------------------
# axioms, recovery, units

def test_letter_blocks_rebuild_the_frames(symmetric2_6, golden_6):
    # X(n) ⊆ E ⊗ X(n-1): the letter-i rows of F_n are F_{n-1} B_{n,i}†; the
    # dense view of the shift tuple's level maps gives those blocks
    level2 = linalg.complement(linalg.span(np.array([[0, 1.0, -0.5, 0]]).T))
    fibers = subproduct.maximal_with_fibers(2, [linalg.full_space(2), level2], 5)
    q = np.array([[1, 2, 0.5j], [0.5, 1, 3], [-2j, 1 / 3, 1]], dtype=complex)
    for system in (symmetric2_6, golden_6, fibers, subproduct.from_qmatrix(q, 4)):
        shifts = fock.build_shifts(fock.build_fock(system))
        assert len(shifts.maps) == system.depth + 1
        for n in range(1, system.depth + 1):
            blocks = shifts.blocks(n)
            f_n, f_prev = system.fiber(n).frame, system.fiber(n - 1).frame
            assert blocks.shape == (system.d, system.dim(n), system.dim(n - 1))
            rebuilt = np.vstack([f_prev @ b.conj().T for b in blocks])
            assert np.max(np.abs(rebuilt - f_n), initial=0.0) <= 1e-12
            reference = frame_letter_blocks(system, n)
            assert np.max(np.abs(blocks - reference), initial=0.0) <= 1e-12


def _coordinate_systems():
    return [
        subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 8),
        subproduct.from_subshift(SubshiftSpec(3, ((1, 1), (2, 3), (3, 2, 1))), 5),
        subproduct.from_subshift(SubshiftSpec(2, ((1, 2), (2, 1), (2, 2), (1, 1, 1))), 4),
        subproduct.from_full(3, 4),
    ]


def test_coordinate_letter_blocks_equal_frame_blocks():
    for system in _coordinate_systems():
        shifts = fock.build_shifts(fock.build_fock(system))
        # read off the word indices, before any frame
        blocks = [shifts.blocks(n) for n in range(1, system.depth + 1)]
        assert all("frame" not in vars(f) for f in system.fibers)
        for n, b in enumerate(blocks, start=1):
            assert np.array_equal(b, frame_letter_blocks(system, n))


def test_coordinate_frames_equal_dense_frames():
    for system in _coordinate_systems():
        spec = system.provenance.get("spec")
        forbidden = spec.forbidden if spec else ()
        for n in range(system.depth + 1):
            words = brute_legal_words(system.d, forbidden, n)
            dense = np.zeros((system.d**n, len(words)))  # real 0/1 frames
            for j, w in enumerate(words):
                dense[ncpoly.word_index(w, system.d), j] = 1.0
            assert system.fiber(n).frame.dtype == dense.dtype
            assert np.array_equal(system.fiber(n).frame, dense)


def test_subshift_frame_beyond_budget_is_refused_without_building(monkeypatch):
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        system = subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 14)
        assert system.dim(14) == 987
        with pytest.raises(MemoryBudgetError, match="coordinate frame"):
            system.fiber(14).frame  # 2^14 x 987 complex is about 247 MiB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_subshift_beyond_int64_word_indices_is_refused():
    # one legal word per level (2...2), so only the index width limits depth
    spec = SubshiftSpec(2, ((1,),))
    assert subproduct.from_subshift(spec, 62).dims() == [1] * 63
    with pytest.raises(ValueError, match="int64"):
        subproduct.from_subshift(spec, 63)


def test_golden_depth_twenty_dims_in_small_memory():
    tracemalloc.start()
    try:
        system = subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fib = [1, 2]
    while len(fib) < 21:
        fib.append(fib[-1] + fib[-2])
    assert system.dims() == fib
    assert peak < 32 << 20


def test_axioms_hold_on_every_route(symmetric2_6, golden_6, full2_6):
    for sys_ in (symmetric2_6, golden_6, full2_6):
        rep = subproduct.verify_axioms(sys_)
        assert rep["ok"]
        assert rep["max_residual"] < 1e-9


def test_coordinate_axioms_are_index_inclusions_equal_to_the_dense_oracle():
    # X(2) = span{e2 ⊗ e2} is not inside X(1) ⊗ X(1) = span{e1 ⊗ e1}
    fibers = (linalg.CoordinateSubspace(1, [0]), linalg.CoordinateSubspace(2, [0]),
              linalg.CoordinateSubspace(4, [ncpoly.word_index((2, 2), 2)]))
    broken = subproduct.SubproductSystem(2, 2, fibers)
    rep = subproduct.verify_axioms(broken)
    assert all("frame" not in vars(f) for f in fibers)  # decided on the indices
    assert rep["residuals"] == {(1, 1): 1.0} == dense_axiom_residuals(broken)
    assert not rep["ok"]


def test_dense_and_mixed_levels_are_refused():
    # a system holds word indices on every level or a core over the level
    # below on every level above 0; hand-made frames go through the completion
    level2 = linalg.complement(linalg.span(np.array([[0, 1.0, -1.0, 0]]).T))
    golden = subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 3)
    symmetric = subproduct.from_ideal(ncpoly.commutator_gens(2), 3)
    cases = {
        2: golden.fibers[:2] + (level2,),  # a dense level over word indices
        1: golden.fibers[:1] + (linalg.span(np.eye(2)),),  # a dense level 1
        3: symmetric.fibers[:3] + (golden.fibers[3],),  # word indices over cores
    }
    for level, fibers in cases.items():
        with pytest.raises(ValueError, match=rf"fiber {level} breaks the system's form.*"
                                             r"maximal_with_fibers\(d, frames, len\(frames\)\)"):
            subproduct.SubproductSystem(2, len(fibers) - 1, tuple(fibers))
    # a core chain needs each core over the very fiber below it
    copy = linalg.CoreSubspace(2, symmetric.fiber(0), symmetric.fiber(1).core)
    with pytest.raises(ValueError, match="fiber 2 breaks"):
        subproduct.SubproductSystem(2, 2, (symmetric.fiber(0), copy, symmetric.fiber(2)))
    # the way in for hand-made frames
    system = subproduct.maximal_with_fibers(2, [linalg.full_space(2), level2], 2)
    assert system.route == "core" and system.dims() == [1, 2, 3]


def _perturbed_core_chain():
    """The d=3 commutator chain at depth 6 with a random orthonormal level-3 core."""
    system = subproduct.from_ideal(ncpoly.commutator_gens(3), 6)
    rng = np.random.default_rng(5)
    shape = system.fiber(3).core.frame.shape
    fibers = list(system.fibers)
    fibers[3] = linalg.CoreSubspace(3, fibers[2], linalg.span(
        rng.normal(size=shape) + 1j * rng.normal(size=shape)))
    for n in range(4, 7):  # the same cores above, over the perturbed level
        fibers[n] = linalg.CoreSubspace(3, fibers[n - 1], system.fiber(n).core)
    return subproduct.SubproductSystem(3, 6, tuple(fibers))


CORE_CHAINS = {
    "commutator2-7": lambda: subproduct.from_ideal(ncpoly.commutator_gens(2), 7),
    "commutator3-6": lambda: subproduct.from_ideal(ncpoly.commutator_gens(3), 6),
    "qmatrix3-7": lambda: subproduct.from_qmatrix(Q3, 7),
    "quadratic-random-7": lambda: subproduct.from_quadratic(QUAD_RANDOM, 7),
    "degree3-d3-5": lambda: subproduct.from_ideal(IdealGens(3, [random_homogeneous_poly(
        np.random.default_rng(17), 3, 3)]), 5),
    "degree1-5": lambda: subproduct.from_ideal(IdealGens(2, [NCPoly.monomial(2, (1,))]), 5),
    "dead-4": lambda: subproduct.from_ideal(
        IdealGens(2, [NCPoly.monomial(2, (1,)), NCPoly.monomial(2, (2,))]), 4),
    "perturbed-core-6": _perturbed_core_chain,
}


@pytest.mark.parametrize("case", sorted(CORE_CHAINS))
def test_core_axioms_and_units_match_the_dense_oracles(case):
    system = CORE_CHAINS[case]()
    rng = np.random.default_rng(23)
    vectors = [np.eye(system.d)[0], rng.normal(size=system.d) + 1j * rng.normal(size=system.d)]
    rep = subproduct.verify_axioms(system)
    units = [subproduct.verify_unit(system, v)["residuals"] for v in vectors]
    assert all("frame" not in vars(f) for f in system.fibers[1:])  # decided on the cores
    ref = dense_axiom_residuals(system)
    assert list(rep["residuals"]) == list(ref)
    assert max(abs(rep["residuals"][s] - ref[s]) for s in ref) <= 1e-12
    for v, got in zip(vectors, units):
        # rounding noise on v^{⊗n}, whose norm is ||v||^n, is compared at that scale
        scale = np.maximum(1.0, np.linalg.norm(v) ** np.arange(1, system.depth + 1))
        assert np.all(np.abs(np.subtract(got, dense_unit_residuals(system, v))) <= 1e-12 * scale)
    # the perturbed level-3 core breaks X(3) ⊆ X(1) ⊗ X(2) and every level above
    assert rep["ok"] == (case != "perturbed-core-6")
    if case == "perturbed-core-6":
        assert rep["max_residual"] > 0.5


def _moved_core_chain(case, level, eps, seed):
    """The core chain `case` with its level-`level` core moved by eps times a
    seeded Gaussian and orthonormalized again, the cores above unchanged."""
    system = CORE_CHAINS[case]()
    rng = np.random.default_rng(seed)
    core = system.fiber(level).core.frame
    noise = rng.normal(size=core.shape)
    if core.dtype.kind == "c":
        noise = noise + 1j * rng.normal(size=core.shape)
    fibers = list(system.fibers)
    fibers[level] = linalg.CoreSubspace(system.d, fibers[level - 1],
                                        linalg.span(core + eps * noise))
    for n in range(level + 1, system.depth + 1):
        fibers[n] = linalg.CoreSubspace(system.d, fibers[n - 1], system.fiber(n).core)
    return subproduct.SubproductSystem(system.d, system.depth, tuple(fibers))


@pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-4])
@pytest.mark.parametrize("case", ["commutator3-6", "qmatrix3-7", "commutator2-7"])
def test_moved_core_axiom_residuals_match_the_unsquared_routes(case, eps):
    # the axiom residuals are read from Grams of the recursion's roots; a core
    # moved by eps gives residuals of about eps on every split through its
    # level, and none of them is lost to the squaring
    system = _moved_core_chain(case, 3, eps, seed=11)
    got = subproduct.verify_axioms(system)["residuals"]
    ref = dense_axiom_residuals(system)
    moved = {s for s, r in ref.items() if r > 0.1 * eps}
    assert len(moved) >= 8
    # the dense oracle subtracts a projection from the unit-norm frame, so it
    # is exact to about 1e-16 absolute, which at eps = 1e-12 is above 1e-6
    # relative; the splits the move leaves alone are at roundoff in both
    for s in ref:
        bound = max(1e-6 * ref[s], 1e-15) if s in moved else 1e-12
        assert abs(got[s] - ref[s]) <= bound, (s, got[s], ref[s])
    # the QR root of the same recursion has the residual as its largest
    # singular value, unsquared: the two agree to working accuracy
    cores = [None] + [f.letter_cores() for f in system.fibers[1:]]
    for n in range(1, system.depth):
        for k, root in enumerate(qr_level_roots(system, cores[n + 1:])):
            if (k, n) in moved:
                unsquared = np.linalg.norm(root, 2)
                assert abs(got[(k, n)] - unsquared) <= 1e-10 * unsquared


@pytest.mark.parametrize("build", [
    lambda: subproduct.from_ideal(ncpoly.commutator_gens(3), 12),
    lambda: subproduct.from_qmatrix(Q3, 7),
    lambda: subproduct.maximal_with_fibers(2, _symmetric_chain(2), 9),
], ids=["commutator3-12", "qmatrix3-7", "symmetric-fibers-9"])
def test_axiom_budget_bounds_the_traced_peak(build, monkeypatch):
    system = build()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        subproduct.verify_axioms(system)
        peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        monkeypatch.setattr(linalg, "BUDGET_BYTES", peak - 1)
        with pytest.raises(MemoryBudgetError, match="axiom residuals"):
            subproduct.verify_axioms(system)
        refused = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert refused < 16 << 10  # refused before anything level-sized is allocated
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 2 * peak)
    assert subproduct.verify_axioms(system)["ok"]
    assert all("frame" not in vars(f) for f in system.fibers[1:]
               if isinstance(f, linalg.CoreSubspace))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ["complex", "real"])
def test_maximal_completion_of_a_generic_level_one_keeps_every_level(kind, seed):
    # every pair constraint is zero to roundoff here, so nothing may be dropped
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 2))
    if kind == "complex":
        m = m + 1j * rng.normal(size=(3, 2))
    system = subproduct.maximal_with_fibers(3, [linalg.span(m)], 4)
    ref = dense_maximal_with_fibers(3, [linalg.span(m)], 4)
    assert system.dims() == [f.dim for f in ref] == [1, 2, 4, 8, 16]
    for n in range(5):
        assert subspace_distance(system.fiber(n), ref[n]) <= 1e-12


def test_recovered_ideal_level_two_of_symmetric(symmetric2_6):
    comp = linalg.complement(symmetric2_6.fiber(2))
    target = np.zeros((4, 1), dtype=complex)
    target[ncpoly.word_index((1, 2), 2), 0] = 1.0
    target[ncpoly.word_index((2, 1), 2), 0] = -1.0
    assert subspace_distance(comp, linalg.span(target)) < 1e-12


def test_ideal_round_trip_fixed_instances():
    rng = np.random.default_rng(7)
    for _ in range(3):
        gens = IdealGens(2, [random_homogeneous_poly(rng, 2, 2),
                             random_homogeneous_poly(rng, 2, 3)])
        sys_ = subproduct.from_ideal(gens, 6)
        back = subproduct.from_ideal(
            subproduct.recover_ideal_gens(sys_), 6)
        for n in range(7):
            assert subspace_distance(sys_.fiber(n), back.fiber(n)) < 1e-8


def test_recovered_generators_come_from_the_complement_cores():
    # level n adds d·r_{n-1} - r_n generators, where its whole complement has
    # d^n - r_n (0, 3, 17, 66, 222, 701 for the commutators at d=3)
    cases = [(subproduct.from_ideal(ncpoly.commutator_gens(3), 6), [0, 3, 8, 15, 24, 35]),
             (subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 6), [0, 1, 1, 2, 3, 5])]
    for system, expected in cases:
        gens = subproduct.recover_ideal_gens(system).gens
        dims, d = system.dims(), system.d
        assert [sum(g.degree() == n for g in gens) for n in range(1, 7)] == expected
        assert expected == [d * dims[n - 1] - dims[n] for n in range(1, 7)]
        back = subproduct.from_ideal(IdealGens(d, gens), 6)
        for n in range(7):
            assert subspace_distance(system.fiber(n), back.fiber(n)) <= 1e-12
    assert all(len(g.terms) == 1 for g in gens)  # golden: monomials ending in 22


def test_units_on_word_indices_match_the_dense_oracle():
    rng = np.random.default_rng(29)
    for system in _coordinate_systems():
        vectors = [np.eye(system.d)[-1], rng.normal(size=system.d) + 1j * rng.normal(size=system.d)]
        units = [subproduct.verify_unit(system, v)["residuals"] for v in vectors]
        assert all("frame" not in vars(f) for f in system.fibers)  # decided on the indices
        for v, got in zip(vectors, units):
            assert np.allclose(got, dense_unit_residuals(system, v), rtol=0, atol=1e-12)
    # a level outside E ⊗ X(n-1) is refused, as the tildes refuse it
    fibers = (linalg.CoordinateSubspace(1, [0]), linalg.CoordinateSubspace(2, [0]),
              linalg.CoordinateSubspace(4, [ncpoly.word_index((2, 2), 2)]))
    with pytest.raises(ValueError, match=r"X\(2\) is not inside"):
        subproduct.verify_unit(subproduct.SubproductSystem(2, 2, fibers), np.ones(2))


def test_golden_depth_twenty_units_in_small_memory():
    system = subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 20)
    tracemalloc.start()
    try:
        units = [subproduct.verify_unit(system, v) for v in np.eye(2)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert units[0]["unital"] and units[0]["residuals"] == [0.0] * 20
    assert units[1]["residuals"] == [0.0] + [1.0] * 19  # 2·2 is forbidden
    assert peak < 1 << 20


def test_unit_vectors_of_golden_mean(golden_6):
    e1 = subproduct.verify_unit(golden_6, np.array([1.0, 0.0]))
    assert e1["is_unit"] and e1["unital"]
    e2 = subproduct.verify_unit(golden_6, np.array([0.0, 1.0]))
    assert not e2["is_unit"]


def test_every_direction_is_a_unit_for_symmetric(symmetric2_6):
    rng = np.random.default_rng(8)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    rep = subproduct.verify_unit(symmetric2_6, v)
    assert rep["is_unit"]
    assert not rep["unital"]  # not normalized
    rep2 = subproduct.verify_unit(symmetric2_6, v / np.linalg.norm(v))
    assert rep2["unital"]


def test_budget_guard_trips(monkeypatch):
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 1000)
    with pytest.raises(MemoryBudgetError):
        subproduct.from_ideal(ncpoly.commutator_gens(3), 6)
    # the full system's word indices are 8 bytes each, 8·(2 + 4 + 8) in all
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 8 * 14)
    assert subproduct.from_full(2, 3).dims() == [1, 2, 4, 8]
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 8 * 14 - 1)
    with pytest.raises(MemoryBudgetError, match="full word indices"):
        subproduct.from_full(2, 3)


def test_provenance_kinds(symmetric2_6, golden_6, full2_6):
    assert symmetric2_6.kind == "ideal"
    assert golden_6.kind == "subshift"
    assert full2_6.kind == "full"
    # every constructor records its generators; the maximal completion derives them
    for system, gens in _generator_systems(3):
        assert [g.terms for g in system.provenance["gens"].gens] == [g.terms for g in gens.gens]
    assert [g.terms for g in golden_6.provenance["gens"].gens] == [{(2, 2): 1}]
    assert full2_6.provenance["gens"].gens == []
    assert subproduct.from_quadratic(np.zeros((2, 2)), 3).provenance["gens"].gens == []
    full1 = subproduct.maximal_with_fibers(2, [linalg.full_space(2)], 2)
    assert full1.provenance["gens"].gens == []


# ---------------------------------------------------------------------------
# the dtype follows the defining data

def _phase(gens: IdealGens, theta: float) -> IdealGens:
    return IdealGens(gens.d, [complex(np.exp(1j * theta)) * g for g in gens.gens])


REAL_SPECS = {
    "golden": {"kind": "subshift", "d": 2, "forbidden": [[2, 2]]},
    "full": {"kind": "full", "d": 2},
    "commutator": {"kind": "ideal", "d": 3, "generators": [
        [{"coeff": [1, 0], "word": [i, j]}, {"coeff": [-1, 0], "word": [j, i]}]
        for i, j in ((1, 2), (1, 3), (2, 3))]},
    "qmatrix-real": {"kind": "qmatrix", "q": formats.encode_matrix(
        np.array([[1, 2, 0.5], [0.5, 1, -3], [2, -1 / 3, 1]]))},
    "quadratic-commutator": {"kind": "quadratic", "A": formats.encode_matrix(QUAD_COMMUTATOR)},
    "golden123-fibers": {"kind": "fibers", "d": 2, "fibers": [
        formats.encode_matrix(f.frame) for f in
        subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 3).fibers[1:]]},
}
COMPLEX_SPECS = {
    "qmatrix": {"kind": "qmatrix", "q": formats.encode_matrix(Q3)},
    "quadratic-random": {"kind": "quadratic", "A": formats.encode_matrix(QUAD_RANDOM)},
    "commutator-phase": {"kind": "ideal", "d": 3, "generators": [
        formats.encode_poly(g) for g in _phase(ncpoly.commutator_gens(3), 0.7).gens]},
    "level2-fibers": {"kind": "fibers", "d": 3, "fibers": [
        formats.encode_matrix(f.frame) for f in _random_level2_chain()]},
}


@pytest.mark.parametrize("name", sorted(REAL_SPECS) + sorted(COMPLEX_SPECS))
def test_real_specs_hold_real_arrays_and_complex_specs_complex(name):
    # decided on the values read from JSON, which decodes to complex arrays
    real = name in REAL_SPECS
    want = np.dtype(float if real else complex)
    system = formats.build_system(REAL_SPECS.get(name) or COMPLEX_SPECS[name], 4)
    assert system.dtype == want
    if system.route == "core":
        assert all(f.core.frame.dtype == want for f in system.fibers[1:])
    sh = fock.build_shifts(fock.build_fock(system))
    assert all(m.dtype.kind == "i" or m.dtype == want for m in sh.maps[1:])
    assert all(sh.blocks(n).dtype == want for n in range(1, 5))
    assert sh.matrices[0].dtype == want
    assert all(fock.defect_projection(sh, k).dtype == want for k in (1, 2))
    p = NCPoly.monomial(system.d, (1,)) + NCPoly.monomial(system.d, (2, 1))
    assert p.eval_on_tuple(sh.matrices).dtype == want
    # a complex tuple meeting the real maps is promoted to complex
    rep = reps.RepTuple(tuple(0.3 * np.eye(2, dtype=complex) for _ in range(system.d)))
    assert all(t.dtype == np.complex128 for t in reps.rep_tildes(system, rep))


def test_phase_rotated_generators_give_the_same_system():
    # g and e^{iθ} g generate the same ideal; the rotated one runs in complex
    gens = ncpoly.commutator_gens(3)
    real = subproduct.from_ideal(gens, 7)
    rotated = subproduct.from_ideal(_phase(gens, 0.7), 7)
    assert (real.dtype, rotated.dtype) == (np.float64, np.complex128)
    assert real.dims() == rotated.dims()
    # at equal dimensions, ||(I - P_a) F_b|| is the distance of the projections
    assert max(inclusion_residual(real.fiber(n), rotated.fiber(n)) for n in range(8)) <= 1e-12
    x = [NCPoly.monomial(3, (i,)) for i in (1, 2, 3)]
    p, q = x[0] + x[1] * x[2], x[1] - x[0] * x[2]
    rep = random_commuting_triple(np.random.default_rng(6))
    a, b = (reps.vn_inequality_check(s, rep, p, q) for s in (real, rotated))
    assert a["verdict"] == b["verdict"] == "pass"
    assert max(abs(a[k] - b[k]) for k in ("lhs", "rhs", "rhs_prev")) <= 1e-12
    for check in (subproduct.verify_axioms, lambda s: reps.is_representation(s, rep)):
        c, r = check(real), check(rotated)
        assert c["ok"] == r["ok"] is True and abs(c["max_residual"] - r["max_residual"]) <= 1e-12


def random_commuting_triple(rng, h=3):
    """Three commuting h x h matrices, polynomials in one, at joint row norm 0.8."""
    a = rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))
    mats = [c[0] * np.eye(h) + c[1] * a + c[2] * a @ a
            for c in rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))]
    scale = 0.8 / np.linalg.norm(np.hstack(mats), 2)
    return reps.RepTuple(tuple(scale * m for m in mats))
