import numpy as np
import pytest

from spsys import fock, linalg, ncpoly, subproduct
from spsys.ncpoly import NCPoly
from spsys.subproduct import SubshiftSpec

from conftest import random_homogeneous_poly
from oracles import shift_of_vector


@pytest.fixture(scope="module")
def golden_shifts(golden_6):
    return fock.build_shifts(fock.build_fock(golden_6, 6))


@pytest.fixture(scope="module")
def sym_shifts(symmetric2_6):
    return fock.build_shifts(fock.build_fock(symmetric2_6, 6))


@pytest.fixture(scope="module")
def full_shifts(full2_6):
    return fock.build_shifts(fock.build_fock(full2_6, 6))


def test_fock_offsets_and_total_dim(golden_6):
    f = fock.build_fock(golden_6, 6)
    dims = golden_6.dims()
    assert f.level_dims() == dims
    assert f.total_dim == sum(dims)
    for n in range(7):
        sl = f.level_slice(n)
        assert sl.stop - sl.start == dims[n]


def test_fock_depth_can_truncate_below_system_depth(golden_6):
    f = fock.build_fock(golden_6, 3)
    assert f.level_dims() == [1, 2, 3, 5]
    with pytest.raises(ValueError):
        fock.build_fock(golden_6, 7)


def test_vacuum_is_unit_vector(golden_6):
    f = fock.build_fock(golden_6, 6)
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
        sa = golden_shifts.of_word(alpha)
        assert np.linalg.norm(sa.conj().T @ omega) < 1e-14
        val = omega.conj() @ (sa @ sa.conj().T @ omega)
        assert abs(val) < 1e-14
    assert golden_shifts.of_word(()).shape == (f.total_dim, f.total_dim)


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
    sh = fock.build_shifts(fock.build_fock(sys_, 6))
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
        low = f.particle_projection(k)
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
    sh = fock.build_shifts(fock.build_fock(sys_, 5))
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
