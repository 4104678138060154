import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spsys import fock, linalg, ncpoly, reps, subproduct
from spsys.ncpoly import IdealGens, NCPoly
from spsys.reps import RepTuple
from spsys.subproduct import SubshiftSpec

from conftest import moved_commuting_pair, random_commuting_pair, random_row_contraction
from oracles import full_word_maps, subspace_distance, word_map_piece


def test_rep_tuple_validation():
    with pytest.raises(ValueError):
        RepTuple(())
    with pytest.raises(ValueError):
        RepTuple((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError):
        RepTuple((np.ones((2, 3)),))


def test_rep_tuple_row_norm_and_scaling():
    rep = RepTuple((np.eye(2) * 0.6, np.eye(2) * 0.8))
    assert rep.row_norm == pytest.approx(1.0)
    half = rep.scaled(0.5)
    assert half.row_norm == pytest.approx(0.5)
    assert np.allclose(half.matrices[0], np.eye(2) * 0.3)


def test_rep_word_is_matrix_product():
    rng = np.random.default_rng(0)
    rep = random_row_contraction(rng, 2, 3, 0.9)
    t1, t2 = rep.matrices
    assert np.allclose(rep.word((1, 2, 1)), t1 @ t2 @ t1)
    assert np.allclose(rep.word(()), np.eye(3))


def test_full_word_maps_collect_all_products():
    rng = np.random.default_rng(1)
    rep = random_row_contraction(rng, 2, 2, 0.9)
    maps = full_word_maps(rep, 2)
    w2 = maps[2]
    for idx, w in enumerate(ncpoly.all_words(2, 2)):
        col = w2[:, idx * 2:(idx + 1) * 2]
        assert np.allclose(col, rep.word(w))


def _tilde_test_systems(symmetric2_6, golden_6):
    q = np.array([[1, 2, 0.5j], [0.5, 1, 3], [-2j, 1 / 3, 1]], dtype=complex)
    level2 = linalg.complement(linalg.span(np.array([[0, 1.0, -0.5, 0]]).T))
    fibers = subproduct.maximal_with_fibers(2, [linalg.full_space(2), level2], 5)
    return [
        (symmetric2_6, 3),
        (golden_6, 3),
        (subproduct.from_qmatrix(q, 4), 3),
        (fibers, 3),
        (subproduct.from_ideal(ncpoly.commutator_gens(2), 4), 31),
        (subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 5), 33),
        # full-shift levels, where the complement C_n is empty
        (subproduct.from_full(2, 4), 3),
        (subproduct.from_subshift(SubshiftSpec(3, D3_FORBIDDEN), 4), 3),
        # zero fibers: r_n = 0 over r_{n-1} > 0, then r_{n-1} = r_n = 0, on cores and indices
        (_zero_fiber_case()[0], 3),
        (subproduct.from_subshift(SubshiftSpec(2, ((1, 1), (1, 2), (2, 1), (2, 2))), 4), 3),
        (subproduct.from_subshift(SubshiftSpec(2, ((1,), (2,))), 3), 3),
    ]


def test_rep_tildes_match_word_sum(symmetric2_6, golden_6):
    # T̃_n = W_n (F_n ⊗ I_h), with W_n the sum over all d^n words
    rng = np.random.default_rng(21)
    for system, h in _tilde_test_systems(symmetric2_6, golden_6):
        rep = random_row_contraction(rng, system.d, h, 0.95)
        tildes = reps.rep_tildes(system, rep)
        maps = full_word_maps(rep, system.depth)
        for n in range(system.depth + 1):
            expected = maps[n] @ np.kron(system.fiber(n).frame, np.eye(h))
            assert tildes[n].shape == expected.shape
            assert np.max(np.abs(tildes[n] - expected), initial=0.0) <= 1e-12


def test_tildes_refuse_a_coordinate_level_outside_the_one_below():
    # X(2) = span{e2 ⊗ e2} does not lie in E ⊗ X(1) = E ⊗ span{e1}
    fibers = (linalg.CoordinateSubspace(1, [0]), linalg.CoordinateSubspace(2, [0]),
              linalg.CoordinateSubspace(4, [ncpoly.word_index((2, 2), 2)]))
    broken = subproduct.SubproductSystem(2, 2, fibers)
    rep = random_row_contraction(np.random.default_rng(26), 2, 3, 0.9)
    with pytest.raises(ValueError, match=r"X\(2\) is not inside"):
        reps.rep_tildes(broken, rep)


def test_is_representation_accepts_commuting_pair(symmetric2_6):
    rng = np.random.default_rng(3)
    rep = random_commuting_pair(rng, 3, 0.9)
    out = reps.is_representation(symmetric2_6, rep)
    assert out["ok"]
    assert out["max_residual"] < 1e-10


def test_is_representation_rejects_noncommuting(symmetric2_6):
    rng = np.random.default_rng(4)
    rep = random_row_contraction(rng, 2, 3, 0.9)
    t1, t2 = rep.matrices
    comm_norm = np.linalg.norm(t1 @ t2 - t2 @ t1, 2)
    assert comm_norm > 1e-6  # generic pair does not commute
    out = reps.is_representation(symmetric2_6, rep)
    assert not out["ok"]
    assert out["max_residual"] == pytest.approx(comm_norm, rel=1e-9)


def test_is_representation_subshift_monomials(golden_6):
    # shifts of the system itself annihilate the forbidden monomial
    from spsys import fock
    sh = fock.build_shifts(fock.build_fock(golden_6))
    # compress to the fock space: the shift tuple is a representation
    rep = RepTuple(tuple(sh.matrices))
    out = reps.is_representation(golden_6, rep)
    assert out["ok"]


def test_is_representation_fibers_route():
    # maximal systems built from raw fibers record the generators derived from
    # the prescribed levels: here X(2)^⊥ = span{e21}, so x2 x1 up to a phase
    level2 = linalg.complement(linalg.span(np.array([[0, 0, 1.0, 0]]).T))
    sys_ = subproduct.maximal_with_fibers(
        2, [linalg.full_space(2), level2], 4)
    rng = np.random.default_rng(5)
    rep = random_row_contraction(rng, 2, 3, 0.8)
    out = reps.is_representation(sys_, rep)
    assert out["route"] == "generators"
    t1, t2 = rep.matrices
    expected = np.linalg.norm(t2 @ t1, 2)
    assert out["residuals"] == pytest.approx([0.0] + [expected] * 3, rel=1e-12, abs=1e-15)
    assert not out["ok"]


def _symmetric_fibers_system(depth):
    level2 = linalg.complement(linalg.span(np.array([[0, 1.0, -1.0, 0]]).T))
    return subproduct.maximal_with_fibers(2, [linalg.full_space(2), level2], depth)


def test_is_representation_complement_fits_a_small_budget_at_depth(monkeypatch):
    # the top level has 8192 words; the derived generator keeps the check at h x h
    sys_ = _symmetric_fibers_system(13)
    rep = random_row_contraction(np.random.default_rng(24), 2, 16, 0.8)
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 8 << 20)
    out = reps.is_representation(sys_, rep)
    assert out["route"] == "generators"
    assert not out["ok"]


GENERATOR_SYSTEMS = {
    "commutator": lambda: subproduct.from_ideal(ncpoly.commutator_gens(3), 4),
    "golden": lambda: subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 6),
}


def _generator_estimate(system, rep, monkeypatch):
    """The one estimate `is_representation` checks on its generator route."""
    seen = []
    check = reps.check_budget

    def spy(needed, what):
        seen.append(needed)
        return check(needed, what)

    monkeypatch.setattr(reps, "check_budget", spy)
    out = reps.is_representation(system, rep)
    monkeypatch.setattr(reps, "check_budget", check)
    assert out["route"] == "generators" and len(seen) == 1
    return seen[0]


def _traced_peak(system, rep) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reps.is_representation(system, rep)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["commutator", "golden"])
def test_is_representation_generators_refuse_one_byte_below_the_estimate(kind, monkeypatch):
    system = GENERATOR_SYSTEMS[kind]()
    rep = random_row_contraction(np.random.default_rng(28), system.d, 12, 0.9)
    needed = _generator_estimate(system, rep, monkeypatch)

    def never(*args, **kwargs):
        raise AssertionError("a generator evaluated before the budget check")

    monkeypatch.setattr(NCPoly, "values_on_tuple", never)
    monkeypatch.setattr(linalg, "BUDGET_BYTES", needed - 1)
    with pytest.raises(linalg.MemoryBudgetError, match="generator values on 12 x 12"):
        reps.is_representation(system, rep)


@pytest.mark.parametrize("kind, h", [("commutator", 64), ("golden", 48)])
def test_is_representation_generator_estimate_is_within_twice_the_traced_peak(kind, h,
                                                                             monkeypatch):
    system = GENERATOR_SYSTEMS[kind]()
    rep = random_row_contraction(np.random.default_rng(29), system.d, h, 0.9)
    needed, peak = _generator_estimate(system, rep, monkeypatch), _traced_peak(system, rep)
    assert peak <= needed <= 2 * peak


def _dead_level_system(depth):
    """The full shift below `depth` and a zero top level: every word of the top
    level is a generator."""
    return subproduct.from_subshift(SubshiftSpec(2, tuple(ncpoly.all_words(depth, 2))), depth)


def _commutator_system(depth):
    return subproduct.from_ideal(ncpoly.commutator_gens(2), depth)


def _rotated_subshift_system(depth):
    """The subshift without x1 x2 x2, its levels 1-3 rotated by U^{⊗n} and
    prescribed: the derived generator has all 8 words of degree 3."""
    u = np.linalg.qr(np.array([[1.0, 2.0], [0.5j, -1.0]]))[0]
    sub = subproduct.from_subshift(SubshiftSpec(2, ((1, 2, 2),)), 3)
    rotations = [u, np.kron(u, u), np.kron(u, np.kron(u, u))]
    return subproduct.maximal_with_fibers(
        2, [linalg.span(r @ sub.fiber(n).frame) for n, r in enumerate(rotations, 1)], depth)


# More systems for the same generator estimate: `fibers` chains with their
# derived generators, a dead top level and the commutators
COMPLEMENT_CASES = [
    pytest.param(_symmetric_fibers_system, 7, 12, id="7-12"),
    pytest.param(_symmetric_fibers_system, 8, 8, id="8-8"),
    pytest.param(_dead_level_system, 5, 16, id="dead-5-16"),
    # at h = 3 the headers outweigh the generator values
    pytest.param(_symmetric_fibers_system, 7, 3, id="7-3"),
    pytest.param(_commutator_system, 7, 3, id="commutator-7-3"),
    # a dense derived generator: its word products are held with its value
    pytest.param(_rotated_subshift_system, 6, 12, id="rotated-6-12"),
    pytest.param(_rotated_subshift_system, 6, 3, id="rotated-6-3"),
]


def test_dense_derived_generators_are_checked_on_their_words():
    # the generator derived from rotated levels has every word of its degree;
    # its value is the word-by-word sum, and the system's own shifts annihilate it
    system = _rotated_subshift_system(6)
    gens = system.provenance["gens"].gens
    assert [(g.degree(), len(g.terms)) for g in gens] == [(3, 8)]
    rep = random_row_contraction(np.random.default_rng(32), 2, 5, 0.9)
    value = sum(c * rep.word(w) for w, c in gens[0].terms.items())
    out = reps.is_representation(system, rep)
    assert out["residuals"] == pytest.approx(
        [0.0, 0.0] + [np.linalg.norm(value, 2)] * 4, rel=1e-12, abs=1e-15)
    shifts = RepTuple(tuple(fock.build_shifts(fock.build_fock(system)).matrices))
    assert reps.is_representation(system, shifts)["max_residual"] < 1e-12
    assert reps.maximal_piece(system, shifts)["dim"] == shifts.h


@pytest.mark.parametrize("make, depth, h", COMPLEMENT_CASES)
def test_is_representation_complement_budget_bounds_the_traced_peak(make, depth, h,
                                                                   monkeypatch):
    system = make(depth)
    rep = random_row_contraction(np.random.default_rng(23), 2, h, 0.8)
    monkeypatch.setattr(linalg, "BUDGET_BYTES", _traced_peak(system, rep) - 1)
    with pytest.raises(linalg.MemoryBudgetError, match=f"generator values on {h} x {h}"):
        reps.is_representation(system, rep)


@pytest.mark.parametrize("make, depth, h", COMPLEMENT_CASES)
def test_is_representation_complement_estimate_is_within_twice_the_traced_peak(make, depth, h,
                                                                              monkeypatch):
    # the estimate counts a generator value with its sum and products, and
    # headers, and nothing of the piece: a budget that would fit is not refused
    system = make(depth)
    rep = random_row_contraction(np.random.default_rng(23), 2, h, 0.8)
    needed, peak = _generator_estimate(system, rep, monkeypatch), _traced_peak(system, rep)
    assert peak <= needed <= 2 * peak


def test_poisson_kernel_isometry_defect_within_tail(symmetric2_6):
    rng = np.random.default_rng(6)
    rep = random_commuting_pair(rng, 3, 0.9)
    k = reps.PoissonKernel(symmetric2_6, rep, r=0.9)
    assert k.isometry_defect() <= k.tail_bound() + 1e-10


def test_poisson_kernel_r_validation(symmetric2_6):
    rng = np.random.default_rng(7)
    rep = random_commuting_pair(rng, 3, 1.0)
    with pytest.raises(ValueError):
        reps.PoissonKernel(symmetric2_6, rep, r=1.0)
    with pytest.raises(ValueError):
        reps.PoissonKernel(symmetric2_6, rep, r=1.2)
    reps.PoissonKernel(symmetric2_6, rep, r=0.9)  # fine below 1


def test_poisson_kernel_r_one_boundary_is_tolerant(symmetric2_6):
    # the r = 1 guard must not hang on the last bit of the row norm: a tuple
    # well inside the unit ball builds, one within the slack of 1 is refused
    rng = np.random.default_rng(7)
    inside = random_commuting_pair(rng, 3, 1 - 1e-6)
    kernel = reps.PoissonKernel(symmetric2_6, inside, r=1.0)
    assert np.isfinite(kernel.tail_bound())
    assert kernel.tail_bound() < 1e6
    rng = np.random.default_rng(7)
    edge = random_commuting_pair(rng, 3, 1 - 1e-12)
    with pytest.raises(ValueError, match="strictly below 1"):
        reps.PoissonKernel(symmetric2_6, edge, r=1.0)


KERNEL_Q3 = np.array([[1, 2, 0.5j], [0.5, 1, 3], [-2j, 1 / 3, 1]])


@pytest.mark.parametrize("kind, h", [
    ("golden", 12), ("commutator", 12), ("fibers", 12),
    ("golden", 3), ("qmatrix3-7", 3), ("qmatrix3-7", 12), ("commutator3-8", 3),
    ("commutator3-8", 12), ("commutator2-7", 3), ("fibers", 3),
])
def test_poisson_kernel_budget_bounds_the_traced_peak(kind, h, monkeypatch):
    # word indices and cores (the fibers spec too); isometry_defect runs
    # inside the estimate. At h = 3 a step's level maps outweigh its tildes,
    # and on the complex q-matrix cores each map is a conjugate copy of a core
    make = {"golden": lambda: _golden(9),
            "commutator": lambda: subproduct.from_ideal(ncpoly.commutator_gens(2), 6),
            "commutator2-7": lambda: subproduct.from_ideal(ncpoly.commutator_gens(2), 7),
            "fibers": lambda: _symmetric_fibers_system(7),
            "qmatrix3-7": lambda: subproduct.from_qmatrix(KERNEL_Q3, 7),
            "commutator3-8": lambda: subproduct.from_ideal(ncpoly.commutator_gens(3), 8)}[kind]
    rep = random_row_contraction(np.random.default_rng(25), make().d, h, 0.9)
    default = linalg.BUDGET_BYTES

    def run(budget=default):
        # fresh for every run, with its frames built under the default budget
        monkeypatch.setattr(linalg, "BUDGET_BYTES", default)
        system = make()
        for n in range(system.depth + 1):
            system.fiber(n).frame
        monkeypatch.setattr(linalg, "BUDGET_BYTES", budget)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kernel = reps.PoissonKernel(system, rep, 0.9)
            kernel.isometry_defect()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert kernel._shifts is None  # the tildes need no level maps of the shifts
        return peak

    peak = run()
    with pytest.raises(linalg.MemoryBudgetError, match="Poisson kernel"):
        run(peak - 1)
    run(2 * peak)


@pytest.mark.parametrize("kind, h", [("golden", 12), ("commutator", 12), ("fibers", 12),
                                     ("commutator2-7", 3), ("fibers", 3)])
def test_cp_semigroup_budget_bounds_the_traced_peak(kind, h, monkeypatch):
    # every tilde is held; the estimate is checked before the first is made
    make = {"golden": lambda: _golden(9),
            "commutator": lambda: subproduct.from_ideal(ncpoly.commutator_gens(2), 6),
            "commutator2-7": lambda: subproduct.from_ideal(ncpoly.commutator_gens(2), 7),
            "fibers": lambda: _symmetric_fibers_system(7)}[kind]
    rep = random_row_contraction(np.random.default_rng(26), 2, h, 0.9)

    def run():
        system = make()  # fresh for every run
        for n in range(system.depth + 1):
            system.fiber(n).frame
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reps.CPSemigroup(system, rep)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak

    peak = run()
    monkeypatch.setattr(linalg, "BUDGET_BYTES", peak - 1)
    with pytest.raises(linalg.MemoryBudgetError, match="tildes up to level"):
        run()
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 2 * peak)
    run()


@pytest.mark.parametrize("kind", ["golden", "commutator"])
def test_rep_tildes_refuses_one_byte_below_its_estimate_before_any_tilde(kind, monkeypatch):
    system = {"golden": lambda: _golden(9),
              "commutator": lambda: subproduct.from_ideal(ncpoly.commutator_gens(2), 6)}[kind]()
    rep = random_row_contraction(np.random.default_rng(27), 2, 5, 0.9)
    seen = []
    check = reps.check_budget

    def spy(needed, what):
        seen.append(needed)
        return check(needed, what)

    monkeypatch.setattr(reps, "check_budget", spy)
    reps.rep_tildes(system, rep)
    assert len(seen) == 1  # one estimate covers the whole call

    def never(*args, **kwargs):
        raise AssertionError("tildes allocated before the budget check")

    monkeypatch.setattr(reps, "_level_recursion", never)
    monkeypatch.setattr(linalg, "BUDGET_BYTES", seen[0] - 1)
    with pytest.raises(linalg.MemoryBudgetError, match=f"tildes up to level {system.depth}"):
        reps.rep_tildes(system, rep)


def test_model_intertwining_r_at_row_norm_is_refused(symmetric2_6):
    rng = np.random.default_rng(11)
    rep = random_commuting_pair(rng, 3, 0.7)
    with pytest.raises(ValueError, match="need r > row norm"):
        reps.model_intertwining_check(
            symmetric2_6, rep, r=rep.row_norm * (1 + 1e-12))


def test_poisson_transform_identity_word(symmetric2_6):
    rng = np.random.default_rng(8)
    rep = random_commuting_pair(rng, 3, 0.8)
    k = reps.PoissonKernel(symmetric2_6, rep, r=0.7)
    out = reps.poisson_transform(k, (), ())
    assert out["ok"]
    assert np.allclose(out["target"], np.eye(3))
    assert out["residual"] <= out["bound"] + 1e-12


def test_poisson_transform_short_words(symmetric2_6):
    rng = np.random.default_rng(9)
    rep = random_commuting_pair(rng, 3, 0.9)
    r = 0.6
    k = reps.PoissonKernel(symmetric2_6, rep, r=r)
    t1, t2 = rep.matrices
    out = reps.poisson_transform(k, (1,), (2,))
    assert out["residual"] <= out["bound"] + 1e-10
    assert np.allclose(out["target"], r**2 * t1 @ t2.conj().T)


def test_model_intertwining_for_commuting_pair(symmetric2_6):
    rng = np.random.default_rng(10)
    rep = random_commuting_pair(rng, 3, 0.7)
    out = reps.model_intertwining_check(symmetric2_6, rep, r=0.9)
    assert out["ok"]
    assert max(out["residuals"]) <= out["bound"] + 1e-9


def test_model_intertwining_needs_room(symmetric2_6):
    rng = np.random.default_rng(11)
    rep = random_commuting_pair(rng, 3, 0.95)
    with pytest.raises(ValueError):
        reps.model_intertwining_check(symmetric2_6, rep, r=0.9)


def test_vn_inequality_commuting_pair(symmetric2_10):
    rng = np.random.default_rng(12)
    rep = random_commuting_pair(rng, 3, 0.9)
    p = NCPoly(2, {(1,): 1.0, (2, 2): 0.5})
    q = NCPoly(2, {(2,): 1.0, (1, 1): -0.25})
    out = reps.vn_inequality_check(symmetric2_10, rep, p, q)
    assert out["verdict"] == "pass"
    assert out["lhs"] <= out["rhs"] + out["margin"]


def test_vn_inequality_detects_violation(symmetric2_6):
    # a pair that is not a representation can beat the shift norm: the
    # commutator vanishes on the shifts but not on the pair
    rng = np.random.default_rng(20)
    rep = random_row_contraction(rng, 2, 3, 0.9)
    p = NCPoly(2, {(1, 2): 1.0, (2, 1): -1.0})
    one = NCPoly(2, {(): 1.0})
    out = reps.vn_inequality_check(symmetric2_6, rep, p, one)
    assert out["rhs"] < 1e-12
    assert out["verdict"] == "fail"


def test_vn_inequality_inconclusive_when_truncation_moves():
    # at depth 2 a degree-2 polynomial is invisible one level lower, so the
    # stabilization gap equals the whole value; a mild excess over the
    # truncated norm then stays in the gray zone
    sym2 = subproduct.from_ideal(ncpoly.commutator_gens(2), 2)
    from spsys import fock
    sh = fock.build_shifts(fock.build_fock(sym2))
    scale = 2.0 ** 0.25
    rep = RepTuple(tuple(scale * s for s in sh.matrices))
    p = NCPoly(2, {(1, 2): 1.0, (2, 1): 1.0})
    out = reps.vn_inequality_check(sym2, rep, p, p)
    assert out["gap"] == pytest.approx(out["rhs"])
    assert out["verdict"] == "inconclusive"


def test_vn_inequality_rhs_prev_is_depth_minus_one_rebuild():
    # mixed degrees, constant terms included, so that terms both raise and
    # lower the level
    rng = np.random.default_rng(22)
    p = NCPoly(2, {(): 0.5, (1,): 1.0, (2, 1): -0.7j, (1, 2, 2): 0.3})
    q = NCPoly(2, {(2,): 1.0, (1, 1): 0.4, (2, 1, 2): 1.0 + 0.5j})
    for build in (lambda n: subproduct.from_ideal(ncpoly.commutator_gens(2), n),
                  lambda n: subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), n)):
        rep = random_row_contraction(rng, 2, 3, 0.9)
        for depth in range(3, 7):
            out = reps.vn_inequality_check(build(depth), rep, p, q)
            lower = reps.vn_inequality_check(build(depth - 1), rep, p, q)
            assert abs(out["rhs_prev"] - lower["rhs"]) <= 1e-12


def test_vn_inequality_depth_guard():
    rng = np.random.default_rng(13)
    rep = random_commuting_pair(rng, 3, 0.5)
    p = NCPoly(2, {(1,): 1.0})
    system = subproduct.from_ideal(ncpoly.commutator_gens(2), 1)
    with pytest.raises(ValueError, match="need depth >= 2"):
        reps.vn_inequality_check(system, rep, p, p)


def test_maximal_piece_of_golden_inside_full():
    golden = subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 5)
    full = subproduct.from_full(2, 5)
    from spsys import fock
    sh = fock.build_shifts(fock.build_fock(full))
    rep = RepTuple(tuple(sh.matrices))
    out = reps.maximal_piece(golden, rep)
    legal_cols = []
    f = sh.fock
    for n in range(6):
        frame = golden.fiber(n).frame
        lift = np.zeros((f.total_dim, frame.shape[1]), dtype=complex)
        lift[f.level_slice(n), :] = frame
        legal_cols.append(lift)
    target = linalg.span(np.hstack(legal_cols))
    assert out["dim"] == target.dim
    assert subspace_distance(out["subspace"], target) < 1e-9
    assert out["residual"] < 1e-9


def conjugated_full_shift(depth, seed, d=2):
    """The full shift on words of length <= depth, conjugated by a unitary."""
    sh = fock.build_shifts(fock.build_fock(subproduct.from_full(d, depth)))
    h = sh.fock.total_dim
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h)))
    return RepTuple(tuple(u @ s @ u.conj().T for s in sh.matrices)), u, sh.fock


def test_maximal_piece_fixed_point_is_pinned():
    # golden depth 4 inside the conjugated full shift (h = 31): the piece is
    # U·(legal-word coordinates), reached in a fixed number of shrink steps;
    # a rank flip in the null-space step changes the dim or the count
    golden = subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 4)
    rep, u, f = conjugated_full_shift(4, seed=40)
    out = reps.maximal_piece(golden, rep)
    legal = [f.level_slice(n).start + i
             for n in range(5) for i in np.flatnonzero(golden.fiber(n).frame.any(axis=1))]
    assert len(legal) == sum(golden.dims()) == 19
    assert out["dim"] == 19
    assert out["iterations"] == 2
    assert out["residual"] <= 1e-9
    target = linalg.span(u[:, legal])
    assert subspace_distance(out["subspace"], target) <= 1e-9


def _golden(depth):
    return subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), depth)


def _shift_tuple(d, depth):
    sh = fock.build_shifts(fock.build_fock(subproduct.from_full(d, depth)))
    return RepTuple(tuple(sh.matrices))


D3_FORBIDDEN = ((1, 1), (2, 3), (3, 2, 1))


def _zero_fiber_case():
    gens = IdealGens(2, [NCPoly.monomial(2, (1,)), NCPoly.monomial(2, (2,))])
    t1 = np.array([[0, 1.0, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
    t2 = np.array([[0, 0, 0.5], [0, 0, 0], [0, 0, 0]], dtype=complex)
    return subproduct.from_ideal(gens, 3), RepTuple((t1, t2))


def _weighted_chain(n, seed, lead=0):
    """Golden depth n and a weighted chain on C^{n+2+lead}, conjugated by a unitary U.

    With t = n - 1 + lead, T_1† e_k = w_k e_{k+1} for k < t, and T_2† takes
    e_t to e_{t+1} to e_{t+2} (all in U's coordinates). Step 1 drops
    e_{lead+1}..e_t, whose words to 22 have at most n letters. Each later step
    drops the e_k within n letters of those dropped at the step before: for
    lead < n, e_0..e_lead at step 2, and span(e_{t+1}, e_{t+2}) is fixed at
    step 3; for lead = n, e_0 only at step 3, which needs the directions lost
    at step 2, and the fixed point comes at step 4.
    """
    t = n - 1 + lead
    h = t + 3
    a1, a2 = np.zeros((h, h), dtype=complex), np.zeros((h, h), dtype=complex)
    w = 0.5 + 0.4 * np.arange(h) / h
    for k in range(t):
        a1[k + 1, k] = w[k]
    a2[t + 1, t], a2[t + 2, t + 1] = w[t], w[t + 1]
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h)))
    return _golden(n), RepTuple(tuple(u @ a.conj().T @ u.conj().T for a in (a1, a2)))


PIECE_CASES = {
    "golden4-conj": lambda: (_golden(4), conjugated_full_shift(4, seed=40)[0]),
    "golden5-conj": lambda: (_golden(5), conjugated_full_shift(5, seed=42)[0]),
    "golden6-conj": lambda: (_golden(6), conjugated_full_shift(6, seed=43)[0]),
    "quadratic5-conj": lambda: (subproduct.from_quadratic(np.array([[0, 1], [-1, 0]]), 5),
                                conjugated_full_shift(5, seed=44)[0]),
    "commutator2-4-conj": lambda: (subproduct.from_ideal(ncpoly.commutator_gens(2), 4),
                                   conjugated_full_shift(4, seed=45)[0]),
    "commutator3-3-conj": lambda: (subproduct.from_ideal(ncpoly.commutator_gens(3), 3),
                                   conjugated_full_shift(3, seed=46, d=3)[0]),
    "symmetric-fibers5-conj": lambda: (_symmetric_fibers_system(5),
                                       conjugated_full_shift(5, seed=47)[0]),
    "commuting-h4": lambda: (subproduct.from_ideal(ncpoly.commutator_gens(2), 6),
                             random_commuting_pair(np.random.default_rng(14), 4, 0.9)),
    "zero-fibers": _zero_fiber_case,
    "random-h5-golden6": lambda: (_golden(6), random_row_contraction(
        np.random.default_rng(48), 2, 5, 0.9)),
    "golden5-shift": lambda: (_golden(5), _shift_tuple(2, 5)),
    "full2-5": lambda: (subproduct.from_full(2, 5), _shift_tuple(2, 5)),
    "full3-3": lambda: (subproduct.from_full(3, 3), _shift_tuple(3, 2)),
    "full4-2": lambda: (subproduct.from_full(4, 2), _shift_tuple(4, 2)),
    "full2-1": lambda: (subproduct.from_full(2, 1), _shift_tuple(2, 4)),
    "subshift3-3-conj": lambda: (subproduct.from_subshift(SubshiftSpec(3, D3_FORBIDDEN), 3),
                                 conjugated_full_shift(3, seed=50, d=3)[0]),
    "zero-level2-subshift": lambda: (
        subproduct.from_subshift(SubshiftSpec(2, ((1, 1), (1, 2), (2, 1), (2, 2))), 4),
        conjugated_full_shift(3, seed=51)[0]),
    "chain3-golden": lambda: _weighted_chain(3, seed=52),
    "chain4-golden": lambda: _weighted_chain(4, seed=53),
    "chain5-golden": lambda: _weighted_chain(5, seed=54),
    "chain4-lead4-golden": lambda: _weighted_chain(4, seed=55, lead=4),
}


@pytest.mark.parametrize("case", sorted(PIECE_CASES))
def test_maximal_piece_matches_word_map_oracle(case):
    # the closure of the ranges g(T) under the T_i is the complement of the
    # null space of the stacked (I - P_n ⊗ P_V) W_n†, step by step, so the
    # shrink steps and the fixed point are the oracle's, where both residuals vanish
    system, rep = PIECE_CASES[case]()
    out = reps.maximal_piece(system, rep)
    ref = word_map_piece(system, rep)
    assert out["dim"] == ref["dim"]
    assert out["iterations"] == ref["iterations"]
    assert subspace_distance(out["subspace"], ref["subspace"]) <= 1e-10
    assert abs(out["residual"] - ref["residual"]) <= 1e-10


@pytest.mark.parametrize("case, steps", [
    ("chain3-golden", 3), ("chain4-golden", 3), ("chain5-golden", 3), ("chain4-lead4-golden", 4)])
def test_maximal_piece_shrinks_after_the_first_step(case, steps):
    # the chains are the cases where later steps add to V^⊥ the T^w images of
    # what the step before added: a plane survives after `steps` steps
    system, rep = PIECE_CASES[case]()
    out = reps.maximal_piece(system, rep)
    assert out["iterations"] == steps
    assert out["dim"] == 2
    assert out["residual"] <= 1e-12


def _commuting_tuple(rng, d, h):
    """d polynomials in one random matrix, scaled to row norm 0.9: they commute exactly."""
    a = rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))
    a /= np.linalg.norm(a, 2)
    mats = []
    for _ in range(d):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        mats.append(c[0] * np.eye(h) + c[1] * a + c[2] * a @ a)
    return 0.9 / np.linalg.norm(np.hstack(mats), 2) * np.stack(mats)


def _unitary(rng, h):
    return np.linalg.qr(rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h)))[0]


def _q_commuting_pair(rng, h, q):
    """T_1 = diag(q^k) and the shift e_k -> e_{k+1}, so T_1 T_2 = q T_2 T_1, conjugated."""
    u = _unitary(rng, h)
    mats = np.stack([np.diag(q ** np.arange(h)), np.eye(h, k=-1)]).astype(complex)
    return 0.9 / np.linalg.norm(np.hstack(mats), 2) * (u @ mats @ u.conj().T)


def _sweep_tuple(kind, d, h, seed):
    rng = np.random.default_rng(seed)
    if kind == "commuting":
        mats = _commuting_tuple(rng, d, h)
    elif kind == "perturbed":  # commuting, moved by 1e-6
        mats = _commuting_tuple(rng, d, h) + 1e-6 * (rng.normal(size=(d, h, h))
                                                    + 1j * rng.normal(size=(d, h, h)))
    elif kind == "generic":
        return random_row_contraction(rng, d, h, 0.9)
    elif kind in ("split", "moved-block"):
        # a commuting block next to a generic one, or to a commuting one moved
        # by 1e-6, conjugated by a unitary
        m = h // 2
        mats = np.zeros((d, h, h), dtype=complex)
        mats[:, :m, :m] = _commuting_tuple(rng, d, m)
        if kind == "split":
            mats[:, m:, m:] = np.stack(random_row_contraction(rng, d, h - m, 0.9).matrices)
        else:
            mats[:, m:, m:] = _commuting_tuple(rng, d, h - m) + 1e-6 * (
                rng.normal(size=(d, h - m, h - m)) + 1j * rng.normal(size=(d, h - m, h - m)))
        u = _unitary(rng, h)
        mats = u @ mats @ u.conj().T
    elif kind == "qpair":
        mats = _q_commuting_pair(rng, h, 0.5)
    elif kind == "chain":
        return _weighted_chain(h - 2, seed)[1]
    else:  # "shift": a conjugated full shift on words of length <= h
        return conjugated_full_shift(h, seed, d)[0]
    return RepTuple(tuple(mats))


SWEEP_SYSTEMS = {
    "golden4": lambda: _golden(4),  # degree 2
    "letter4": lambda: subproduct.from_subshift(SubshiftSpec(2, ((2,),)), 4),  # degree 1
    "cubic-subshift4": lambda: subproduct.from_subshift(SubshiftSpec(2, ((1, 2, 1),)), 4),
    "commutator2-4": lambda: subproduct.from_ideal(ncpoly.commutator_gens(2), 4),
    "qrel4": lambda: subproduct.from_qmatrix(np.array([[1, 0.5], [2, 1]]), 4),
    "cubic-ideal4": lambda: subproduct.from_ideal(
        IdealGens(2, [NCPoly(2, {(1, 2, 2): 1.0, (2, 2, 1): -1.0})]), 4),
    "fibers4": lambda: _symmetric_fibers_system(4),
    "commutator3-3": lambda: subproduct.from_ideal(ncpoly.commutator_gens(3), 3),
    "subshift3-3": lambda: subproduct.from_subshift(SubshiftSpec(3, D3_FORBIDDEN), 3),
}
# (tuple kind, h or, for "shift" and "chain", the word length and chain depth + 2)
SWEEP_TUPLES_D2 = [("commuting", 6), ("perturbed", 8), ("generic", 5), ("split", 10),
                   ("qpair", 6), ("chain", 6), ("shift", 2)]
SWEEP_TUPLES_D3 = [("commuting", 5), ("perturbed", 6), ("generic", 4), ("split", 8),
                   ("shift", 1)]
SWEEP_CASES = [(name, kind, h) for name in SWEEP_SYSTEMS
               for kind, h in (SWEEP_TUPLES_D3 if name.endswith("3-3") else SWEEP_TUPLES_D2)]


@pytest.mark.parametrize("name, kind, h", SWEEP_CASES,
                         ids=[f"{n}-{k}" for n, k, _ in SWEEP_CASES])
def test_maximal_piece_sweep_matches_word_map_oracle(name, kind, h):
    # generator degrees 1 to 3, q-relations, commutators and a fibers system,
    # against commuting, perturbed, generic, split, q-commuting, chain and
    # shift tuples: the closure in C^h gives the oracle's shrink steps
    system = SWEEP_SYSTEMS[name]()
    rep = _sweep_tuple(kind, system.d, h, seed=1000 + SWEEP_CASES.index((name, kind, h)))
    out = reps.maximal_piece(system, rep)
    ref = word_map_piece(system, rep)
    assert out["dim"] == ref["dim"]
    assert out["iterations"] == ref["iterations"]
    assert subspace_distance(out["subspace"], ref["subspace"]) <= 1e-10
    assert out["residual"] <= 1e-12 and ref["residual"] <= 1e-12


@pytest.mark.parametrize("name", ["commutator2-4", "cubic-ideal4", "fibers4", "commutator3-3"])
def test_maximal_piece_keeps_the_exact_block_next_to_a_moved_one(name):
    # the moved block's g(T) is about 1e-6, so its range is known to about
    # 1e-16 / 1e-6 = 1e-10: the first step weighs its directions by their
    # singular values, and the exact commuting block survives as the piece
    system = SWEEP_SYSTEMS[name]()
    rep = _sweep_tuple("moved-block", system.d, 8, seed=2000)
    out = reps.maximal_piece(system, rep)
    ref = word_map_piece(system, rep)
    assert out["dim"] == ref["dim"] == 4
    assert out["iterations"] == ref["iterations"] == 2
    assert subspace_distance(out["subspace"], ref["subspace"]) <= 1e-8
    assert out["residual"] <= 1e-8


def test_maximal_piece_second_step_starts_from_all_of_the_first():
    # at tol = 1e-12 the first step keeps the g(T) directions (about 4e-12)
    # and weighs their T_i images by them, so most fall under tol, but at
    # unit weight they count; the second step starts from all of V_1^⊥, and
    # the piece is the oracle's, not a subspace that fails its own conditions
    system, rep = subproduct.from_ideal(ncpoly.commutator_gens(2), 4), moved_commuting_pair()
    out = reps.maximal_piece(system, rep, tol=1e-12)
    ref = word_map_piece(system, rep, tol=1e-12)
    assert (out["dim"], out["iterations"]) == (ref["dim"], ref["iterations"]) == (0, 2)
    assert out["residual"] == 0.0


@pytest.mark.parametrize("tol, dim", [(1e-9, 4), (1e-11, 4), (1e-12, 0), (1e-13, 0)])
def test_maximal_piece_decides_ranks_at_tol(tol, dim):
    # the largest generator residual is about 4e-12: at a tol above it the pair
    # is a representation and the piece is all of C^4, at a tol below it
    # neither holds, and the word-map oracle at the same tol agrees
    system, rep = subproduct.from_ideal(ncpoly.commutator_gens(2), 4), moved_commuting_pair()
    assert reps.is_representation(system, rep, tol=tol)["ok"] == (dim == 4)
    out = reps.maximal_piece(system, rep, tol=tol)
    assert out["dim"] == word_map_piece(system, rep, tol=tol)["dim"] == dim
    assert out["subspace"].tol_used == out["tol"] == tol and out["residual"] <= tol


def _exact_rep(name, rng, h):
    """A representation of the consistency system `name`: a commuting pair, or
    for golden a pair with T_2 = x y†, y ⊥ x, so that T_2 T_2 = 0."""
    if name != "golden4":
        return np.stack(random_commuting_pair(rng, h, 0.9).matrices)
    z = rng.normal(size=(h, h + 2)) + 1j * rng.normal(size=(h, h + 2))
    x, y = z[:, h], z[:, h + 1]
    y = y - np.vdot(x, y) / np.vdot(x, x) * x
    mats = np.stack([z[:, :h], np.outer(x, y.conj())])
    return 0.9 / np.linalg.norm(np.hstack(mats), 2) * mats


CONSISTENCY_SYSTEMS = {
    "commutator2-4": lambda: subproduct.from_ideal(ncpoly.commutator_gens(2), 4),
    "cubic-ideal4": SWEEP_SYSTEMS["cubic-ideal4"],
    "golden4": lambda: _golden(4),
    "fibers4": lambda: _symmetric_fibers_system(4),
}
# an exact representation, the same moved by a multiple of 1e-12, 1e-10 or 1e-8, or generic
CONSISTENCY_TUPLES = {"exact": 0.0, "moved-1e-12": 1e-12, "moved-1e-10": 1e-10,
                      "moved-1e-8": 1e-8, "generic": None}


@pytest.mark.parametrize("name", sorted(CONSISTENCY_SYSTEMS))
@pytest.mark.parametrize("kind", list(CONSISTENCY_TUPLES))
def test_verdicts_agree_at_one_tolerance(name, kind):
    # ideal, subshift and fibers systems against exact, near and generic
    # tuples, at two tolerances each:
    # - check-rep passes at tol iff the piece is all of C^h at tol;
    # - then Θ_m Θ_n(a) - Θ_{m+n}(a) = R (I ⊗ a) R†, R the word map on the part
    #   of X(m) ⊗ X(n) outside X(m+n), is second order in the residuals: within
    #   1e-3 · tol for ||a|| = 1 (roundoff included);
    # - and the Poisson kernel is an isometry within its tail bound plus tol
    system, h = CONSISTENCY_SYSTEMS[name](), 4
    rng = np.random.default_rng([3000, sorted(CONSISTENCY_SYSTEMS).index(name),
                                 list(CONSISTENCY_TUPLES).index(kind)])
    for _ in range(3):
        eps = CONSISTENCY_TUPLES[kind]
        if eps is None:
            rep = random_row_contraction(rng, 2, h, 0.9)
        else:
            rep = RepTuple(tuple(_exact_rep(name, rng, h) + eps * (
                rng.normal(size=(2, h, h)) + 1j * rng.normal(size=(2, h, h)))))
        a = rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))
        a /= np.linalg.norm(a, 2)
        for tol in (1e-9, 1e-11):
            ok = reps.is_representation(system, rep, tol=tol)["ok"]
            assert ok == (reps.maximal_piece(system, rep, tol=tol)["dim"] == h)
            if not ok:
                continue
            semi = reps.CPSemigroup(system, rep)
            for m in range(1, system.depth):
                for n in range(1, system.depth - m + 1):
                    assert semi.semigroup_residual(m, n, a) <= 1e-3 * tol
            kernel = reps.PoissonKernel(system, rep, 0.9)
            assert kernel.isometry_defect() <= kernel.tail_bound() + tol


def test_piece_and_complement_build_no_fiber_frame():
    # the residuals over the fibers' complements come from the generators, also
    # on a `fibers` system, whose frames above the prescribed levels stay unbuilt
    rep, _, _ = conjugated_full_shift(4, seed=49)
    commutator = subproduct.from_ideal(ncpoly.commutator_gens(2), 4)
    for system, unbuilt in ((_golden(4), 0), (commutator, 0), (_symmetric_fibers_system(4), 3)):
        reps.maximal_piece(system, rep)
        reps.is_representation(system, rep)
        assert all("frame" not in vars(f) for f in system.fibers[unbuilt:])


def test_a_system_without_generators_is_refused_before_any_allocation(monkeypatch):
    # every constructor records generators; fibers assembled by hand have none,
    # and both checks refuse them before the budget check or any g(T)
    system = subproduct.SubproductSystem(2, 4, _golden(4).fibers)
    rep = random_row_contraction(np.random.default_rng(30), 2, 3, 0.9)

    def never(*args, **kwargs):
        raise AssertionError("allocated before the refusal")

    monkeypatch.setattr(reps, "check_budget", never)
    monkeypatch.setattr(NCPoly, "values_on_tuple", never)
    for check in (reps.is_representation, reps.maximal_piece):
        with pytest.raises(ValueError, match="records no generators"):
            check(system, rep)


def test_piece_budget_refusal_names_its_level_once(monkeypatch):
    # a `fibers` system reads its derived generators, so the message is the
    # piece's own and says "up to level 14" once
    system = _symmetric_fibers_system(14)
    rep = random_row_contraction(np.random.default_rng(31), 2, 16, 0.9)
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 1024)
    with pytest.raises(linalg.MemoryBudgetError) as refused:
        reps.maximal_piece(system, rep)
    message = str(refused.value)
    assert "piece constraints up to level 14" in message
    assert message.count("up to level 14") == 1


def test_maximal_piece_budget_covers_all_levels_before_allocating(monkeypatch):
    # golden depth 5 in the conjugated full shift (h = 63): one estimate covers
    # the generator values, the basis, a block's projection and the final QR;
    # one byte below it the piece is refused before any g(T) is evaluated
    golden = subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 5)
    rep, _, _ = conjugated_full_shift(5, seed=41)
    seen = []
    check = reps.check_budget

    def spy(needed, what):
        seen.append((needed, what))
        return check(needed, what)

    monkeypatch.setattr(reps, "check_budget", spy)
    reps.maximal_piece(golden, rep)
    assert [what for _, what in seen] == ["piece constraints up to level 5"]

    def never(*args, **kwargs):
        raise AssertionError("a generator evaluated before the budget check")

    monkeypatch.setattr(NCPoly, "values_on_tuple", never)
    monkeypatch.setattr(linalg, "BUDGET_BYTES", seen[0][0] - 1)
    with pytest.raises(linalg.MemoryBudgetError, match="piece constraints up to level 5"):
        reps.maximal_piece(golden, rep)


BUDGET_SYSTEMS = {
    "full": subproduct.from_full,
    "golden": lambda d, depth: _golden(depth),
    "commutator": lambda d, depth: subproduct.from_ideal(ncpoly.commutator_gens(d), depth),
}


@pytest.mark.parametrize("kind, d, depth, h_depth", [
    pytest.param("full", 2, 5, 5, id="2-5-5"),
    pytest.param("full", 3, 3, 2, id="3-3-2"),
    pytest.param("full", 4, 2, 2, id="4-2-2"),
    pytest.param("full", 2, 1, 4, id="2-1-4"),
    pytest.param("golden", 2, 9, 5, id="golden-9-5"),
    pytest.param("commutator", 3, 4, 2, id="commutator3-4-2"),
])
def test_maximal_piece_budget_bounds_the_traced_peak(kind, d, depth, h_depth, monkeypatch):
    system = BUDGET_SYSTEMS[kind](d, depth)
    sh = fock.build_shifts(fock.build_fock(subproduct.from_full(d, h_depth)))
    rep = RepTuple(tuple(sh.matrices))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reps.maximal_piece(system, rep)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # any budget the estimate accepts covers the measured peak
    monkeypatch.setattr(linalg, "BUDGET_BYTES", peak - 1)
    with pytest.raises(linalg.MemoryBudgetError):
        reps.maximal_piece(system, rep)


@pytest.mark.parametrize("kind, d, depth, h_depth", [
    pytest.param("full", 2, 5, 5, id="2-5-5"),
    pytest.param("golden", 2, 9, 5, id="golden-9-5"),
])
def test_maximal_piece_budget_is_at_most_twice_the_traced_peak(kind, d, depth, h_depth,
                                                               monkeypatch):
    # where the generator values, the basis and a block's projection outweigh
    # the headers, the estimate stays close enough that a budget which would fit
    # is not refused
    seen = []
    check = reps.check_budget

    def spy(needed, *args):
        seen.append(needed)
        return check(needed, *args)

    monkeypatch.setattr(reps, "check_budget", spy)
    system, rep = BUDGET_SYSTEMS[kind](d, depth), _shift_tuple(d, h_depth)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reps.maximal_piece(system, rep)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert seen[0] <= 2 * peak


def test_maximal_piece_of_genuine_representation_is_everything(symmetric2_6):
    rng = np.random.default_rng(14)
    rep = random_commuting_pair(rng, 4, 0.9)
    out = reps.maximal_piece(symmetric2_6, rep)
    assert out["dim"] == 4
    assert out["iterations"] <= 2


def test_maximal_piece_with_zero_fibers_is_joint_kernel():
    gens = IdealGens(2, [NCPoly.monomial(2, (1,)), NCPoly.monomial(2, (2,))])
    sys_ = subproduct.from_ideal(gens, 3)
    t1 = np.array([[0, 1.0, 0], [0, 0, 0], [0, 0, 0]])
    t2 = np.array([[0, 0, 0.5], [0, 0, 0], [0, 0, 0]])
    rep = RepTuple((t1 * (1 + 0j), t2 * (1 + 0j)))
    out = reps.maximal_piece(sys_, rep)
    # X(n) = 0 forces T_i^† to vanish on the piece: rows 2 and 3 survive
    kernel = linalg.nullspace(np.vstack([t1.conj().T, t2.conj().T]))
    assert out["dim"] == kernel.dim == 2
    assert subspace_distance(out["subspace"], kernel) < 1e-10


def test_cp_semigroup_law_and_choi(symmetric2_6):
    rng = np.random.default_rng(15)
    rep = random_commuting_pair(rng, 3, 0.9)
    semi = reps.CPSemigroup(symmetric2_6, rep)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for m in range(4):
        for n in range(4 - m):
            assert semi.semigroup_residual(m, n, a) < 1e-10
    for n in range(4):
        assert semi.choi_min_eig(n) > -1e-10


def test_cp_semigroup_choi_is_the_sum_over_matrix_units():
    # against sum_ab E_ab ⊗ Θ_n(E_ab), on cores and on word indices
    rng = np.random.default_rng(16)
    for system in (subproduct.from_ideal(ncpoly.commutator_gens(2), 5), _golden(5)):
        rep = random_row_contraction(rng, 2, 3, 0.9)
        semi = reps.CPSemigroup(system, rep)
        for n in range(system.depth + 1):
            expected = np.zeros((9, 9), dtype=complex)
            for a in range(3):
                for b in range(3):
                    e_ab = np.zeros((3, 3), dtype=complex)
                    e_ab[a, b] = 1.0
                    expected += np.kron(e_ab, semi.theta(n, e_ab))
            assert np.max(np.abs(semi.choi(n) - expected)) <= 1e-14


def test_cp_semigroup_unital_for_coisometric_row(symmetric2_6):
    t1 = np.array([[1.0, 0], [0, 0]], dtype=complex)
    t2 = np.array([[0, 0], [0, 1.0]], dtype=complex)
    rep = RepTuple((t1, t2))
    semi = reps.CPSemigroup(symmetric2_6, rep)
    assert semi.unital_residual(1) < 1e-12
    assert semi.unital_residual(2) < 1e-12


_Q3 = np.array([[1, 2, 0.5j], [0.5, 1, 3], [-2j, 1 / 3, 1]], dtype=complex)
_LEVEL2 = linalg.complement(linalg.span(np.array([[0, 1.0, -0.5, 0]]).T))
_BUILDS = {
    "subshift": lambda n: subproduct.from_subshift(SubshiftSpec(3, ((1, 1), (2, 3, 1))), n),
    "full": lambda n: subproduct.from_full(2, n),
    "ideal": lambda n: subproduct.from_ideal(ncpoly.commutator_gens(3), n),
    "qmatrix": lambda n: subproduct.from_qmatrix(_Q3, n),
    "quadratic": lambda n: subproduct.from_quadratic(np.array([[1, 2 - 1j], [0.3j, -0.7]]), n),
    "fibers": lambda n: subproduct.maximal_with_fibers(2, [linalg.full_space(2), _LEVEL2], n),
}


@pytest.mark.parametrize("kind", list(_BUILDS))
def test_a_lower_depth_system_is_the_prefix_of_a_higher_one(kind):
    # level n depends only on the levels below, so building at depth 3 gives
    # the first four fibers of the depth-5 system bit for bit, and whatever is
    # derived from them agrees with the depth-5 system cut to those fibers
    low, high = _BUILDS[kind](3), _BUILDS[kind](5)
    for a, b in zip(low.fibers, high.fibers):
        if isinstance(a, linalg.CoordinateSubspace):
            assert np.array_equal(a.index, b.index)
        else:
            assert np.array_equal(a.core.frame, b.core.frame)
    cut = replace(high, depth=3, fibers=high.fibers[:4])
    rep = random_row_contraction(np.random.default_rng(30), low.d, 2, 0.5)
    assert np.array_equal(reps.PoissonKernel(low, rep, 0.9).matrix,
                          reps.PoissonKernel(cut, rep, 0.9).matrix)
    p = NCPoly(low.d, {(1,): 1.0, (2, 1): 0.5})
    q = NCPoly(low.d, {(): 1.0, (1, 2): -0.3j})
    assert reps.vn_inequality_check(low, rep, p, q) == reps.vn_inequality_check(cut, rep, p, q)
