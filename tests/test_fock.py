import numpy as np
import pytest

from spsys import fock, linalg, ncpoly, reps, subproduct
from spsys.linalg import MemoryBudgetError
from spsys.ncpoly import IdealGens, NCPoly
from spsys.subproduct import SubshiftSpec

from conftest import budget_run, random_homogeneous_poly, random_row_contraction
from oracles import (
    dense_annihilation_residual, dense_axiom_residuals, dense_defect_projection,
    dense_defect_residual, dense_model_residuals, dense_poisson_value,
    dense_subshift_relations, of_word, particle_projection, shift_of_vector,
)


@pytest.fixture(scope="module")
def golden_shifts(golden_6):
    return fock.build_shifts(fock.build_fock(golden_6))


@pytest.fixture(scope="module")
def sym_shifts(symmetric2_6):
    return fock.build_shifts(fock.build_fock(symmetric2_6))


@pytest.fixture(scope="module")
def full_shifts(full2_6):
    return fock.build_shifts(fock.build_fock(full2_6))


def test_fock_offsets_and_total_dim(golden_6):
    f = fock.build_fock(golden_6)
    dims = golden_6.dims()
    assert f.level_dims() == dims
    assert f.total_dim == sum(dims)
    for n in range(7):
        sl = f.level_slice(n)
        assert sl.stop - sl.start == dims[n]


def test_vacuum_is_unit_vector(golden_6):
    f = fock.build_fock(golden_6)
    v = f.vacuum()
    assert v[0] == 1.0
    assert np.linalg.norm(v) == 1.0


def test_shift_blocks_raise_level(sym_shifts):
    f = sym_shifts.fock
    for s in sym_shifts.matrices:
        for n in range(6):
            block = s[np.ix_(range(f.total_dim), range(*f.level_slice(n).indices(f.total_dim)))]
            # image of level n lives in level n+1
            lo, hi = f.level_slice(n + 1).start, f.level_slice(n + 1).stop
            mask = np.ones(f.total_dim, dtype=bool)
            mask[lo:hi] = False
            assert np.linalg.norm(block[mask]) < 1e-14


def test_shift_blocks_are_frame_letter_blocks(sym_shifts, golden_shifts):
    q = np.array([[1, 2, 0.5j], [0.5, 1, 3], [-2j, 1 / 3, 1]], dtype=complex)
    qsys = subproduct.from_qmatrix(q, 4)
    q_shifts = fock.build_shifts(fock.build_fock(qsys))
    for sh in (sym_shifts, golden_shifts, q_shifts):
        f, system = sh.fock, sh.fock.system
        d = system.d
        for n in range(f.depth):
            fn, fn1 = system.fiber(n).frame, system.fiber(n + 1).frame
            for i in range(d):
                expected = fn1[i * d**n:(i + 1) * d**n, :].conj().T @ fn
                block = sh.matrices[i][f.level_slice(n + 1), f.level_slice(n)]
                assert np.max(np.abs(block - expected), initial=0.0) <= 1e-14


def test_shifts_are_row_contraction(sym_shifts, golden_shifts, full_shifts):
    for sh in (sym_shifts, golden_shifts, full_shifts):
        assert sh.row_norm <= 1 + 1e-10


def test_shift_on_vacuum_is_level_one_vector(golden_shifts):
    f = golden_shifts.fock
    for i, s in enumerate(golden_shifts.matrices):
        v = s @ f.vacuum()
        lv1 = v[f.level_slice(1)]
        e = np.zeros(2)
        e[i] = 1.0
        assert np.allclose(lv1, e)


def test_vacuum_only_survives_adjoint_words(golden_shifts):
    f = golden_shifts.fock
    omega = f.vacuum()
    for alpha in [(1,), (2,), (1, 2)]:
        sa = of_word(golden_shifts, alpha)
        assert np.linalg.norm(sa.conj().T @ omega) < 1e-14
        val = omega.conj() @ (sa @ sa.conj().T @ omega)
        assert abs(val) < 1e-14
    assert of_word(golden_shifts, ()).shape == (f.total_dim, f.total_dim)


def test_graded_element_keeps_vector_norm(golden_6, golden_shifts):
    # the shift built from a fiber vector has operator norm equal to the
    # vector norm, attained on the vacuum
    rng = np.random.default_rng(0)
    x = golden_6.fiber(3)
    v = x.frame @ (rng.normal(size=x.dim) + 1j * rng.normal(size=x.dim))
    op = shift_of_vector(golden_shifts, v, 3)
    nrm = linalg.opnorm(op)
    assert nrm == pytest.approx(np.linalg.norm(v), abs=1e-9)


def test_constant_dim_letter_two_is_partial_isometry():
    sys_ = subproduct.from_subshift(SubshiftSpec(2, ((1, 2), (2, 2))), 6)
    sh = fock.build_shifts(fock.build_fock(sys_))
    s2 = sh.matrices[1]
    # s2^† s2 is a projection: partial isometry with one-dimensional kernel
    # per level (the word ending in a letter that 2 cannot follow)
    gram = s2.conj().T @ s2
    assert np.linalg.norm(gram @ gram - gram) < 1e-12
    f = sh.fock
    ranks = [int(round(np.trace(gram[f.level_slice(n), f.level_slice(n)]).real))
             for n in range(7)]
    # one word per level extends by the letter 2; the top level truncates
    assert ranks == [1, 1, 1, 1, 1, 1, 0]
    kernels = [f.level_dims()[n] - ranks[n] for n in range(1, 6)]
    assert kernels == [1, 1, 1, 1, 1]


def test_defect_projection_is_vacuum_on_window(sym_shifts, golden_shifts, full_shifts):
    for sh in (sym_shifts, golden_shifts, full_shifts):
        f = sh.fock
        defect = fock.defect_projection(sh, 1)
        win = f.window(f.depth - 1)
        vac = np.zeros((f.total_dim, f.total_dim))
        vac[0, 0] = 1.0
        assert linalg.opnorm(defect[win, win] - vac[win, win]) < 1e-10


def test_higher_defects_are_low_particle_projections(golden_shifts):
    f = golden_shifts.fock
    low_dims = np.cumsum(f.level_dims())
    for k in (2, 3):
        defect = fock.defect_projection(golden_shifts, k)
        win = f.window(f.depth - k)
        low = particle_projection(f, k)
        assert linalg.opnorm(defect[win, win] - low[win, win]) < 1e-10
        # levels 0..k-1 sit inside the window, so the whole projection shows
        assert int(round(np.trace(defect[win, win]).real)) == int(low_dims[k - 1])


def test_annihilation_check_routes_agree(sym_shifts, golden_shifts):
    rng = np.random.default_rng(1)
    comm = NCPoly(2, {(1, 2): 1.0, (2, 1): -1.0})
    rep = fock.annihilation_check(sym_shifts, comm)
    assert rep["in_ideal"]
    assert rep["residual"] < 1e-9
    assert rep["agreement"] < 1e-9
    for sh in (sym_shifts, golden_shifts):
        for deg in (2, 3, 4):
            p = random_homogeneous_poly(rng, 2, deg)
            rep = fock.annihilation_check(sh, p)
            assert rep["agreement"] < 1e-8
            assert rep["in_ideal"] == (rep["residual"] <= rep["tol"])


def test_annihilation_check_rejects_bad_inputs(sym_shifts):
    with pytest.raises(ValueError):
        fock.annihilation_check(sym_shifts, NCPoly(2, {}))
    mixed = NCPoly(2, {(1,): 1.0, (1, 2): 1.0})
    with pytest.raises(ValueError):
        fock.annihilation_check(sym_shifts, mixed)


def test_subshift_relations_golden(golden_shifts):
    rep = fock.subshift_relations(golden_shifts)
    assert rep["ok"]
    assert rep["orthogonality"] < 1e-12
    assert rep["completeness_residual"] < 1e-10
    by_letter = {r["letter"]: r for r in rep["per_letter"]}
    # letter 1 can precede both letters, letter 2 only letter 1
    assert by_letter[1]["followers"] == 2
    assert by_letter[2]["followers"] == 1
    # the level-0 correction is the vacuum for each letter
    assert by_letter[1]["rank"] == 1
    assert by_letter[2]["rank"] == 1


def test_subshift_relations_full_shift():
    sys_ = subproduct.from_subshift(SubshiftSpec(2, ()), 5)
    sh = fock.build_shifts(fock.build_fock(sys_))
    rep = fock.subshift_relations(sh)
    assert rep["ok"]
    # step 0: the range identity has no visible correction at all
    for r in rep["per_letter"]:
        assert r["rank"] == 0
    assert rep["orthogonality"] < 1e-12


def test_subshift_relations_requires_subshift(sym_shifts):
    with pytest.raises(ValueError):
        fock.subshift_relations(sym_shifts)


def test_export_shifts_writes_consistent_files(tmp_path, golden_shifts):
    from spsys import formats
    fock.export_shifts(golden_shifts, tmp_path)
    meta = formats.load_json(tmp_path / "offsets.json")
    assert meta["d"] == 2
    assert meta["dims"] == golden_shifts.fock.level_dims()
    assert meta["total_dim"] == golden_shifts.fock.total_dim
    for i in (1, 2):
        m = formats.decode_matrix(formats.load_json(tmp_path / f"shift_{i}.json"))
        assert np.allclose(m, golden_shifts.matrices[i - 1])


# ---------------------------------------------------------------------------
# level-local checks against their dense total x total forms

D3_FORBIDDEN = ((1, 1), (2, 3), (3, 2, 1))
Q3 = np.array([[1, 2, 0.5j], [0.5, 1, 3], [-2j, 1 / 3, 1]], dtype=complex)


def _relabel(words, perm):
    return tuple(tuple(perm[a - 1] for a in w) for w in words)


ORACLE_SYSTEMS = {
    **{f"golden-{n}": (lambda n=n: subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), n))
       for n in range(4, 10)},
    "d3-5": lambda: subproduct.from_subshift(SubshiftSpec(3, D3_FORBIDDEN), 5),
    "d3-relabeled-5": lambda: subproduct.from_subshift(
        SubshiftSpec(3, _relabel(D3_FORBIDDEN, (2, 3, 1))), 5),
    "full-subshift-5": lambda: subproduct.from_subshift(SubshiftSpec(2, ()), 5),
    "full-5": lambda: subproduct.from_full(2, 5),
    "commutator2-6": lambda: subproduct.from_ideal(ncpoly.commutator_gens(2), 6),
    "commutator3-5": lambda: subproduct.from_ideal(ncpoly.commutator_gens(3), 5),
    "qmatrix3-5": lambda: subproduct.from_qmatrix(Q3, 5),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_level_local_checks_match_dense_oracles(name):
    system = ORACLE_SYSTEMS[name]()
    d, depth = system.d, system.depth
    sh = fock.build_shifts(fock.build_fock(system))
    for k in range(1, 4):
        assert np.max(np.abs(fock.defect_projection(sh, k)
                             - dense_defect_projection(sh, k))) <= 1e-12
        assert abs(fock.defect_residual(sh, k) - dense_defect_residual(sh, k)) <= 1e-12

    rng = np.random.default_rng(11)
    for deg in range(1, min(depth, 4) + 1):
        p = random_homogeneous_poly(rng, d, deg)
        assert abs(fock.annihilation_check(sh, p)["residual"]
                   - dense_annihilation_residual(sh, p)) <= 1e-12

    axioms = subproduct.verify_axioms(system)["residuals"]
    dense = dense_axiom_residuals(system)
    assert axioms.keys() == dense.keys()
    assert all(abs(axioms[s] - dense[s]) <= 1e-12 for s in dense)

    if system.kind == "subshift":
        rel, oracle = fock.subshift_relations(sh), dense_subshift_relations(sh)
        assert abs(rel["orthogonality"] - oracle["orthogonality"]) <= 1e-12
        assert abs(rel["completeness_residual"] - oracle["completeness_residual"]) <= 1e-12
        for got, want in zip(rel["per_letter"], oracle["per_letter"], strict=True):
            assert got["rank"] == want["rank"]
            assert got["followers"] == want["followers"]
            assert abs(got["support_residual"] - want["support_residual"]) <= 1e-12

    rep = random_row_contraction(rng, d, 3, 0.7)
    kernel = reps.PoissonKernel(system, rep, 0.9)
    words = [((), ()), ((1,), (d,)), ((d, 1), (2,)), ((1, 2, 1), (2, 2))]
    for alpha, beta in words:
        value = reps.poisson_transform(kernel, alpha, beta)["value"]
        assert np.max(np.abs(value - dense_poisson_value(kernel, alpha, beta))) <= 1e-12
    model = reps.model_intertwining_check(system, rep, 0.8)
    oracle = dense_model_residuals(reps.PoissonKernel(system, rep.scaled(1 / 0.8), 1.0),
                                   rep.scaled(1 / 0.8))
    assert np.allclose(model["residuals"], oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(n for n in ORACLE_SYSTEMS
                                         if not n.startswith(("commutator", "qmatrix"))))
def test_word_index_checks_equal_dense_oracles_exactly(name):
    # on word indices every level block is a 0/1 diagonal: counts and largest
    # entries give the dense oracles' ranks and norms bit for bit
    system = ORACLE_SYSTEMS[name]()
    assert system.route == "coordinate"
    sh = fock.build_shifts(fock.build_fock(system))
    for k in range(1, 4):
        assert fock.defect_residual(sh, k) == dense_defect_residual(sh, k)
    assert sh.row_norm == linalg.opnorm(np.hstack(sh.matrices))
    if system.kind == "subshift":
        rel, oracle = fock.subshift_relations(sh), dense_subshift_relations(sh)
        assert rel["orthogonality"] == oracle["orthogonality"]
        assert rel["completeness_residual"] == oracle["completeness_residual"]
        for got, want in zip(rel["per_letter"], oracle["per_letter"], strict=True):
            assert (got["rank"], got["followers"], got["support_residual"]) == (
                want["rank"], want["followers"], want["support_residual"])


def test_subshift_relations_refuse_a_core_chain():
    # golden as a monomial ideal: the same fibers, held as cores
    cores = subproduct.from_ideal(IdealGens(2, [NCPoly.monomial(2, (2, 2))]), 4)
    system = subproduct.SubproductSystem(2, 4, cores.fibers, {
        "kind": "subshift", "spec": SubshiftSpec(2, ((2, 2),))})
    with pytest.raises(ValueError, match="word indices"):
        fock.subshift_relations(fock.build_shifts(fock.build_fock(system)))


def test_golden_depth_eighteen_shift_checks_under_one_mib():
    # the dense 0/1 letter blocks alone would need 1397 MiB at this depth
    fk = fock.build_fock(subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 18))

    def run():
        sh = fock.build_shifts(fk)
        assert fock.defect_residual(sh, 1) == fock.defect_residual(sh, 2) == 0.0
        assert fock.subshift_relations(sh)["ok"]

    with budget_run() as traced:
        run()
    assert traced.peak < 1 << 20


def test_coordinate_checks_build_no_dense_shift_or_frame(monkeypatch):
    def refuse(self):
        raise AssertionError("dense object built")

    monkeypatch.setattr(fock.ShiftSet, "matrices", property(refuse))
    monkeypatch.setattr(linalg.CoordinateSubspace, "frame", property(refuse))
    system = subproduct.from_subshift(SubshiftSpec(3, D3_FORBIDDEN), 5)
    sh = fock.build_shifts(fock.build_fock(system))
    assert fock.defect_projection(sh, 2).shape == (sh.fock.total_dim,) * 2
    assert fock.defect_residual(sh, 2) == 0.0
    assert fock.subshift_relations(sh)["ok"]
    rng = np.random.default_rng(2)
    assert fock.annihilation_check(sh, NCPoly.monomial(3, (2, 3)))["in_ideal"]
    assert not fock.annihilation_check(sh, random_homogeneous_poly(rng, 3, 3))["in_ideal"]
    rep = random_row_contraction(rng, 3, 4, 0.6)
    kernel = reps.PoissonKernel(system, rep, 0.9)
    assert reps.poisson_transform(kernel, (1, 2), (3,))["value"].shape == (4, 4)
    assert len(reps.model_intertwining_check(system, rep, 0.7)["residuals"]) == 3
    assert subproduct.verify_axioms(system)["max_residual"] == 0.0


# ---------------------------------------------------------------------------
# budgets of the dense shift views

def _refused(call, match: str) -> bool:
    """Whether `call` is refused over the budget with `match` in the message.
    Caught here, the refusal leaves no cyclic garbage behind: a `pytest.raises`
    context would keep the exception, whose traceback holds the frame that holds
    the context, so a traced peak would count it or not as the cycle collector
    ran."""
    try:
        call()
    except MemoryBudgetError as e:
        return match in str(e)
    return False


def test_dense_shift_view_budget_bounds_the_traced_peak(monkeypatch):
    # cores (a view per letter block) and word indices (a scatter per letter)
    for system in (subproduct.from_ideal(ncpoly.commutator_gens(3), 7),
                   subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 8)):
        fk = fock.build_fock(system)
        maps = fock.build_shifts(fk).maps  # the level maps are held from here on
        with budget_run() as accepted:
            fock.ShiftSet(fk, maps).matrices
        peak = accepted.peak
        monkeypatch.setattr(linalg, "BUDGET_BYTES", peak - 1)
        with budget_run() as refused:
            ok = _refused(lambda: fock.ShiftSet(fk, maps).matrices, "shift matrices")
        assert ok and refused.peak < peak // 100  # refused before anything is assembled
        # the estimate is the arrays and a header allowance: within 2 KiB of the peak
        monkeypatch.setattr(linalg, "BUDGET_BYTES", peak + 2048)
        accepted = fock.ShiftSet(fk, maps).matrices
        monkeypatch.undo()
        # the view made at that budget is the one made at the default budget
        assert all(map(np.array_equal, accepted, fock.ShiftSet(fk, maps).matrices))


def test_vn_inequality_budget_bounds_the_traced_peak(monkeypatch):
    system = subproduct.from_ideal(ncpoly.commutator_gens(3), 8)
    x = [NCPoly.monomial(3, (i,)) for i in (1, 2, 3)]
    p, q = x[0] + x[1] * x[2], x[1] - x[0] * x[2]
    rep = random_row_contraction(np.random.default_rng(4), 3, 3, 0.5)

    def run():
        return reps.vn_inequality_check(system, rep, p, q)

    with budget_run() as accepted:
        run()
    peak = accepted.peak
    monkeypatch.setattr(linalg, "BUDGET_BYTES", peak - 1)
    with budget_run() as refused:
        ok = _refused(run, "vN shift operators")
    assert ok and refused.peak < peak // 100  # refused before anything is allocated
    # the estimate is within 10% of the peak here
    monkeypatch.setattr(linalg, "BUDGET_BYTES", int(1.1 * peak))
    assert run()["verdict"] in ("pass", "inconclusive")
