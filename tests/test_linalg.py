import numpy as np
import pytest

from spsys import linalg

from conftest import budget_run
from oracles import (
    complement, pair_coordinates, project_pair, projector, subspace_distance, zero_space,
)


def random_subspace(rng, ambient, dim):
    m = rng.normal(size=(ambient, dim)) + 1j * rng.normal(size=(ambient, dim))
    return linalg.span(m)


def test_span_orthonormal_frame():
    rng = np.random.default_rng(0)
    s = random_subspace(rng, 7, 3)
    assert s.dim == 3
    gram = s.frame.conj().T @ s.frame
    assert np.linalg.norm(gram - np.eye(3)) < 1e-12


def test_span_drops_dependent_columns():
    v = np.array([[1.0], [2.0], [0.0]])
    m = np.hstack([v, 3 * v, v])
    assert linalg.span(m).dim == 1


def test_span_of_zero_matrix_is_zero_space():
    s = linalg.span(np.zeros((4, 2)))
    assert s.dim == 0
    assert s.ambient_dim == 4


def test_projector_is_idempotent_and_hermitian():
    rng = np.random.default_rng(1)
    s = random_subspace(rng, 6, 2)
    p = projector(s)
    assert np.linalg.norm(p @ p - p) < 1e-12
    assert np.linalg.norm(p - p.conj().T) < 1e-12


def test_complement_dimensions_and_orthogonality():
    rng = np.random.default_rng(2)
    s = random_subspace(rng, 9, 4)
    c = complement(s)
    assert c.dim == 5
    assert np.linalg.norm(s.frame.conj().T @ c.frame) < 1e-12


def test_nullspace_matches_svd_rank():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(5, 8))
    m[:, 6] = m[:, 0] + m[:, 1]
    z = linalg.nullspace(m)
    assert z.dim == 3
    assert np.linalg.norm(m @ z.frame) < 1e-9


def test_nullspace_tall_matrix_full_rank():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(20, 4))
    assert linalg.nullspace(m).dim == 0


def test_nullspace_tall_complex_rank_deficient_matches_full_svd():
    # tall stacks go through their R factor; the kept directions must be
    # those of the full SVD of the stack itself
    rng = np.random.default_rng(13)
    left = rng.normal(size=(60, 7)) + 1j * rng.normal(size=(60, 7))
    right = rng.normal(size=(7, 12)) + 1j * rng.normal(size=(7, 12))
    m = left @ right
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(s > max(linalg.RANK_REL_TOL * s[0], linalg.RANK_ABS_FLOOR)))
    oracle = linalg.Subspace(12, vh[rank:, :].conj().T.copy(), 0.0)
    z = linalg.nullspace(m)
    assert rank == 7
    assert z.dim == oracle.dim == 5
    assert subspace_distance(z, oracle) <= 1e-12
    assert np.linalg.norm(m @ z.frame) < 1e-9 * s[0]


def test_frame_check_accepts_small_spectral_defect_with_large_frobenius():
    # gram - I is (1 + 4e-11)^2 - 1 ≈ 8e-11 on each of 100 diagonal entries:
    # spectral norm 8e-11, Frobenius norm 8e-10, and the spectral norm decides
    frame = np.eye(100, dtype=complex) * (1 + 4e-11)
    defect = frame.conj().T @ frame - np.eye(100)
    assert np.linalg.norm(defect) > linalg.FRAME_ORTHO_TOL
    assert np.linalg.norm(defect, 2) < linalg.FRAME_ORTHO_TOL
    assert linalg.Subspace(100, frame, 0.0).dim == 100


def test_frame_check_rejects_spectral_defect():
    frame = np.eye(100, dtype=complex)
    frame[:, 0] *= np.sqrt(1 + 1e-9)
    with pytest.raises(ValueError, match="not orthonormal"):
        linalg.Subspace(100, frame, 0.0)


@pytest.mark.parametrize("index, message", [
    ([0, 3, 2], "strictly increasing"),
    ([1, 1, 4], "strictly increasing"),
    ([-1, 2], "out of range"),
    ([2, 6], "out of range"),
])
def test_coordinate_subspace_rejects_bad_indices(index, message):
    with pytest.raises(ValueError, match=message):
        linalg.CoordinateSubspace(6, index)


def test_coordinate_subspace_frame_is_unit_columns_on_demand(monkeypatch):
    # the 0/1 frame is real: 8 bytes an entry
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 8 * 6 * 3)
    s = linalg.CoordinateSubspace(6, [0, 2, 5])
    assert s.dim == 3 and "frame" not in vars(s) and s.dtype == np.float64
    assert np.array_equal(s.frame, np.eye(6)[:, [0, 2, 5]]) and s.frame.dtype == np.float64
    assert s.frame is s.frame
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 8 * 6 * 3 - 1)
    with pytest.raises(linalg.MemoryBudgetError, match="coordinate frame"):
        linalg.CoordinateSubspace(6, [0, 2, 5]).frame
    assert np.array_equal(linalg.full_space(4).frame, np.eye(4))


def test_core_subspace_frame_is_core_over_previous_frame_on_demand(monkeypatch):
    rng = np.random.default_rng(9)
    prev = random_subspace(rng, 5, 3)
    core = random_subspace(rng, 2 * 3, 4)
    # the complex frame and a 160-byte header allowance
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 16 * 10 * 4 + 160)
    s = linalg.CoreSubspace(2, prev, core)
    assert (s.ambient_dim, s.dim) == (10, 4) and "frame" not in vars(s)
    expected = np.kron(np.eye(2), prev.frame) @ core.frame
    assert np.max(np.abs(s.frame - expected)) <= 1e-14
    assert s.frame is s.frame
    assert np.array_equal(prev.frame @ s.letter_cores()[1], s.frame[5:])
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 16 * 10 * 4 + 160 - 1)
    with pytest.raises(linalg.MemoryBudgetError, match="fiber frame"):
        linalg.CoreSubspace(2, prev, core).frame
    with pytest.raises(ValueError, match="does not fit"):
        linalg.CoreSubspace(3, prev, core)


def test_opnorm_agrees_with_numpy():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert linalg.opnorm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-13, abs=0)


def _opnorm_sweep():
    """Seeded real and complex matrices, tall, wide and square, of full rank
    and of rank 1, each as drawn and scaled by 1e-200 and 1e200."""
    rng = np.random.default_rng(40)
    for kind in ("real", "complex"):
        def draw(*shape):
            x = rng.normal(size=shape)
            return x + 1j * rng.normal(size=shape) if kind == "complex" else x
        for rows, cols in [(1, 1), (1, 9), (9, 1), (7, 3), (3, 7), (12, 12), (60, 5),
                           (5, 60), (33, 33)]:
            for rank, m in (("full", draw(rows, cols)), ("rank1", draw(rows, 1) @ draw(1, cols))):
                for scale in (1.0, 1e-200, 1e200):
                    yield f"{kind} {rows}x{cols} {rank} x{scale:g}", scale * m


def test_opnorm_matches_numpy_on_a_seeded_sweep():
    # the largest eigenvalue of a Gram holds sigma_max to working accuracy,
    # also where the entries' squares would under- or overflow
    worst = max((abs(linalg.opnorm(m) / np.linalg.norm(m, 2) - 1), name)
                for name, m in _opnorm_sweep())
    assert worst[0] <= 1e-13, worst


@pytest.mark.parametrize("exp", [-1000, -700, 300, 700])
def test_opnorm_scales_by_powers_of_two_exactly(exp):
    # a scale of 2^exp moves no bit of the norm: inside the safe range the Gram
    # is formed as it stands, outside it m is scaled back by a power of two
    rng = np.random.default_rng(41)
    for shape in [(5, 5), (7, 3), (3, 7), (40, 5)]:
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert linalg.opnorm(m * 2.0**exp) == linalg.opnorm(m) * 2.0**exp


def test_opnorm_of_zero_empty_and_one_dimensional_input():
    for m in (np.zeros((4, 3)), np.zeros((3, 4), dtype=complex), np.zeros(5)):
        assert linalg.opnorm(m) == 0.0
    for m in (np.zeros((0, 5)), np.zeros((5, 0)), np.zeros(0), []):
        assert linalg.opnorm(m) == 0.0
    # a vector is a row: its norm is the Euclidean one
    assert linalg.opnorm(np.array([3.0, 4.0])) == 5.0
    v = np.random.default_rng(42).normal(size=17) * (1 + 2j)
    assert linalg.opnorm(v) == pytest.approx(np.linalg.norm(v), rel=1e-13, abs=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                 complex(np.inf, 1)])
def test_opnorm_of_non_finite_input_is_nan(bad):
    # NaN and inf entries both give nan (an SVD raised on NaN and gave nan for
    # inf), so a residual that is not a number fails every `<=` threshold
    m = np.eye(3, dtype=type(bad))
    m[1, 2] = bad
    assert np.isnan(linalg.opnorm(m))
    assert np.isnan(linalg.opnorm(m.T))


def test_gram_norm_reads_the_largest_eigenvalue():
    rng = np.random.default_rng(43)
    x = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
    assert linalg.gram_norm(x.conj().T @ x) == pytest.approx(np.linalg.norm(x, 2), rel=1e-13)
    assert linalg.gram_norm(np.zeros((0, 0))) == 0.0
    assert linalg.gram_norm(-1e-30 * np.eye(2)) == 0.0  # roundoff below 0 of a zero Gram


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    p = a @ a.conj().T
    r = linalg.psd_sqrt(p)
    assert np.linalg.norm(r @ r - p) < 1e-9 * np.linalg.norm(p)
    assert np.linalg.norm(r - r.conj().T) < 1e-10


# the pair projection of the test oracles, against the Kronecker projector

def test_project_pair_matches_kron_projector():
    rng = np.random.default_rng(10)
    a = random_subspace(rng, 3, 2)
    b = random_subspace(rng, 4, 2)
    m = rng.normal(size=(12, 5)) + 1j * rng.normal(size=(12, 5))
    direct = np.kron(projector(a), projector(b)) @ m
    fast = project_pair(a.frame, b.frame, m, 3, 4)
    assert np.linalg.norm(direct - fast) < 1e-10


@pytest.mark.parametrize("dim_a, ra, dim_b, rb, r", [
    (2, 1, 63, 40, 63),    # ra = 1, and the piece's shapes
    (32, 13, 6, 6, 6),     # a full b leg
    (8, 5, 1, 1, 4),       # dim_b = 1
    (1, 1, 7, 3, 2),       # dim_a = 1
    (5, 0, 4, 2, 3),       # rank-0 a frame
    (5, 3, 4, 0, 3),       # rank-0 b frame
    (5, 3, 4, 2, 0),       # no columns
])
def test_project_pair_matches_kron_projector_on_shapes(dim_a, ra, dim_b, rb, r):
    rng = np.random.default_rng(dim_a * 1000 + dim_b * 10 + ra + rb + r)
    a = random_subspace(rng, dim_a, ra) if ra else zero_space(dim_a)
    b = random_subspace(rng, dim_b, rb) if rb else zero_space(dim_b)
    m = rng.normal(size=(dim_a * dim_b, r)) + 1j * rng.normal(size=(dim_a * dim_b, r))
    m[:, ::2] = 0  # zero columns must come back exactly zero
    direct = np.kron(projector(a), projector(b)) @ m
    fast = project_pair(a.frame, b.frame, m, dim_a, dim_b)
    assert fast.shape == (dim_a * dim_b, r)
    assert not fast[:, ::2].any()
    assert np.abs(direct - fast).max(initial=0.0) <= 1e-13 * max(1.0, np.abs(m).max(initial=0.0))
    coords = pair_coordinates(a.frame, b.frame, m, dim_a, dim_b)
    assert coords.shape == (ra * rb, r)
    assert np.abs(np.kron(a.frame, b.frame).conj().T @ m - coords).max(initial=0.0) <= 1e-12


def test_subspace_distance_symmetry_and_zero():
    rng = np.random.default_rng(11)
    a = random_subspace(rng, 5, 2)
    b = random_subspace(rng, 5, 3)
    assert subspace_distance(a, a) < 1e-12
    d_ab = subspace_distance(a, b)
    assert d_ab == pytest.approx(subspace_distance(b, a))
    assert d_ab == pytest.approx(1.0)  # different dimensions force distance 1


def test_check_budget_compares_the_sum_of_its_terms(monkeypatch):
    terms = {"level maps": 1400 << 20, "p(S) q(S)†": 600 << 20, "blocks": 5 << 20,
             "headers": 16 << 10, "small arrays": 100, "nothing": 0}
    monkeypatch.setattr(linalg, "BUDGET_BYTES", sum(terms.values()))
    linalg.check_budget(terms, "vN shift operators")
    monkeypatch.setattr(linalg, "BUDGET_BYTES", sum(terms.values()) - 1)
    with pytest.raises(linalg.MemoryBudgetError) as refused:
        linalg.check_budget(terms, "vN shift operators")
    # the parent's one line, then the three largest terms in decreasing order
    assert str(refused.value) == (
        "vN shift operators needs about 2005 MiB, budget is 2005 MiB; "
        "largest: level maps 1400 MiB, p(S) q(S)† 600 MiB, blocks 5 MiB")


def test_check_budget_refusal_names_small_terms_in_kib_or_bytes(monkeypatch):
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 0)
    with pytest.raises(linalg.MemoryBudgetError) as refused:
        linalg.check_budget({"headers": 100, "word indices": 3000, "none": 0}, "full words")
    assert str(refused.value) == ("full words needs about 0 MiB, budget is 0 MiB; "
                                  "largest: word indices 2 KiB, headers 100 bytes")
    linalg.check_budget({"nothing": 0}, "an empty level")  # 0 bytes fit a budget of 0


# ---------------------------------------------------------------------------
# the one count of numpy's factorizations behind every budget estimate

FACTOR_CALLS = {
    "svd": lambda a: np.linalg.svd(a, full_matrices=False),
    "svd full": lambda a: np.linalg.svd(a, full_matrices=True),
    "qr r": lambda a: np.linalg.qr(a, mode="r"),
    "qr complete": lambda a: np.linalg.qr(a, mode="complete"),
    "eigh": np.linalg.eigh,
    "gram_norm": linalg.gram_norm,
    "opnorm": linalg.opnorm,
}
HERMITIAN = ("eigh", "gram_norm")


def _factor_input(call, shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape).astype(dtype)
    if np.dtype(dtype).kind == "c":
        a += 1j * rng.normal(size=shape)
    return a.conj().T @ a if call in HERMITIAN else a


def _traced_peak(fn, a):
    fn(a)  # numpy's first call on a shape allocates caches of its own
    with budget_run() as run:
        fn(a)
    return run.peak


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape", [(96, 40), (64, 64), (40, 96), (7, 3), (3, 7)],
                         ids=["tall", "square", "wide", "small-tall", "small-wide"])
@pytest.mark.parametrize("call", FACTOR_CALLS)
def test_factor_bytes_lie_between_one_and_two_traced_peaks(call, shape, dtype):
    a = _factor_input(call, shape, dtype)
    needed = linalg.factor_bytes(call, *a.shape, np.dtype(dtype).itemsize)
    peak = _traced_peak(FACTOR_CALLS[call], a)
    assert peak <= needed <= 2 * peak, (peak, needed)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("call", ["svd", "svd full", "qr r", "qr complete", "eigh"])
def test_factor_bytes_of_the_first_array_returned(call, dtype):
    # what a caller keeps by indexing [0] (R is returned alone); w counts at
    # the input's itemsize
    for shape in ((96, 40), (40, 96)):
        a = _factor_input(call, shape, dtype)
        out = FACTOR_CALLS[call](a)
        first = out if call == "qr r" else out[0]
        counted = linalg.factor_bytes(call, *a.shape, a.itemsize, first=True)
        assert first.nbytes <= counted <= 2 * first.nbytes


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape, rank", [((96, 40), 40), ((96, 40), 10), ((64, 64), 64),
                                         ((64, 64), 16), ((40, 96), 40), ((40, 96), 10)])
def test_factor_bytes_bound_the_nullspace_at_any_rank(shape, rank, dtype):
    # the rank is not known before the call: the count takes a null frame of
    # every column, so it bounds the traced peak at any rank
    rng = np.random.default_rng(1)
    a = (rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))).astype(dtype)
    needed = linalg.factor_bytes("nullspace", *shape, a.itemsize)
    peak = _traced_peak(linalg.nullspace, a)
    assert peak <= needed <= 3 * peak, (peak, needed)
