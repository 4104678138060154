"""End-to-end checks of the package's headline guarantees.

One test per numbered guarantee; the pytest terminal summary prints a
PASS/FAIL line for each under "acceptance checks". Tolerances are part of
the contract and are asserted literally.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from spsys import classify, cpmaps, fock, linalg, ncpoly, reps, subproduct
from spsys.cpmaps import KrausChannel
from spsys.ncpoly import IdealGens, NCPoly
from spsys.reps import RepTuple
from spsys.subproduct import SubshiftSpec

from conftest import (
    random_commuting_pair,
    random_commuting_stochastic_pair,
    random_homogeneous_poly,
)
from oracles import gram_dim_oracle, particle_projection, subspace_distance
from test_subproduct import brute_legal_words


def test_01_commutation_ideal_dims_binomial():
    t0 = time.perf_counter()
    for d in (2, 3, 4):
        sys_ = subproduct.from_ideal(ncpoly.commutator_gens(d), 8)
        assert sys_.dims() == [math.comb(n + d - 1, n) for n in range(9)]
    assert time.perf_counter() - t0 < 10.0


def test_02_subshift_dims_match_enumeration_oracle():
    rng = np.random.default_rng(20260825)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        count = int(rng.integers(1, 5))
        forbidden = tuple(
            tuple(int(x) for x in rng.integers(1, d + 1, size=rng.integers(1, 4)))
            for _ in range(count)
        )
        sys_ = subproduct.from_subshift(SubshiftSpec(d, forbidden), 7)
        expected = [len(brute_legal_words(d, forbidden, n)) for n in range(8)]
        assert sys_.dims() == expected

    golden = subproduct.from_subshift(SubshiftSpec(2, ((2, 2),)), 7)
    assert golden.dims() == [1, 2, 3, 5, 8, 13, 21, 34]

    # interrupted-run family: all words "2, run of 1s, 2" up to the depth
    depth = 6
    runs = tuple((2,) + (1,) * j + (2,) for j in range(depth - 1))
    sys_ = subproduct.from_subshift(SubshiftSpec(2, runs), depth)
    assert sys_.dims() == [n + 1 for n in range(depth + 1)]

    const = subproduct.from_subshift(SubshiftSpec(2, ((1, 2), (2, 2))), 6)
    assert const.dims() == [1] + [2] * 6


def test_03_ideal_round_trip_twenty_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(20):
        degs = rng.choice([1, 2, 2, 3, 3], size=rng.integers(1, 3), replace=True)
        gens = IdealGens(2, [random_homogeneous_poly(rng, 2, int(k))
                            for k in degs])
        sys_ = subproduct.from_ideal(gens, 6)
        back = subproduct.from_ideal(subproduct.recover_ideal_gens(sys_), 6)
        for n in range(7):
            assert subspace_distance(sys_.fiber(n), back.fiber(n)) <= 1e-8


def test_04_shift_defects_are_particle_projections(
        full2_6, symmetric2_6, golden_6):
    for sys_ in (full2_6, symmetric2_6, golden_6):
        sh = fock.build_shifts(fock.build_fock(sys_))
        f = sh.fock
        defect = fock.defect_projection(sh, 1)
        win = f.window(5)
        vac = np.zeros((f.total_dim, f.total_dim))
        vac[0, 0] = 1.0
        assert linalg.opnorm(defect[win, win] - vac[win, win]) <= 1e-10
        for k in (2, 3):
            dk = fock.defect_projection(sh, k)
            wk = f.window(6 - k)
            low = particle_projection(f, k)
            assert linalg.opnorm(dk[wk, wk] - low[wk, wk]) <= 1e-10


def test_05_annihilation_routes_agree_on_fifty_polynomials(
        symmetric2_6, golden_6):
    rng = np.random.default_rng(5)
    shift_sets = [fock.build_shifts(fock.build_fock(s))
                  for s in (symmetric2_6, golden_6)]
    for _ in range(50):
        p = random_homogeneous_poly(rng, 2, int(rng.integers(1, 5)))
        for sh in shift_sets:
            rep = fock.annihilation_check(sh, p, tol=1e-8)
            by_residual = rep["residual"] <= 1e-8
            by_membership = rep["projected_norm"] <= 1e-8
            assert by_residual == by_membership == rep["in_ideal"]


def test_06_subshift_relations_golden_and_cuntz(golden_6, full2_6):
    sh = fock.build_shifts(fock.build_fock(golden_6))
    f = sh.fock
    s1, s2 = sh.matrices
    assert linalg.opnorm(s1.conj().T @ s2) <= 1e-12
    assert linalg.opnorm(s2.conj().T @ s1) <= 1e-12

    # letter-2 range identity: its defect against the letter-1 range is the
    # vacuum, on the levels where both sides are truncation free
    d2 = s2.conj().T @ s2 - s1 @ s1.conj().T
    win = f.window(5)
    vac = np.zeros((f.total_dim, f.total_dim))
    vac[0, 0] = 1.0
    assert linalg.opnorm(d2[win, win] - vac[win, win]) <= 1e-10
    sing = np.linalg.svd(d2[win, win], compute_uv=False)
    assert int(np.sum(sing > 1e-10)) == 1

    shf = fock.build_shifts(fock.build_fock(full2_6))
    cuntz = np.eye(shf.fock.total_dim) - sum(
        s @ s.conj().T for s in shf.matrices)
    winf = shf.fock.window(5)
    sing = np.linalg.svd(cuntz[winf, winf], compute_uv=False)
    assert int(np.sum(sing > 1e-10)) == 1


def test_07_poisson_transform_commuting_pair(symmetric2_10):
    rng = np.random.default_rng(7)
    rep = random_commuting_pair(rng, 3, 0.95)
    r = 0.6
    kernel = reps.PoissonKernel(symmetric2_10, rep, r=r)

    def ceiling(s):
        return 0.6 ** (2 * (11 - s)) / 0.64 + 1e-10

    assert kernel.isometry_defect() <= ceiling(0)
    words = [()] + [(i,) for i in (1, 2)] + \
        [(i, j) for i in (1, 2) for j in (1, 2)]
    for alpha in words:
        for beta in words:
            s = len(alpha) + len(beta)
            if s > 2:
                continue
            out = reps.poisson_transform(kernel, alpha, beta)
            assert out["residual"] <= ceiling(s)


def test_08_model_intertwining_twenty_representations(symmetric2_12):
    rng = np.random.default_rng(8)
    for _ in range(20):
        rep = random_commuting_pair(rng, 3, float(rng.uniform(0.3, 0.8)))
        out = reps.model_intertwining_check(
            symmetric2_12, rep, r=0.9)
        assert max(out["residuals"]) <= out["bound"] + 1e-9


def random_low_degree_poly(rng, d, max_degree):
    terms = {}
    for degree in range(max_degree + 1):
        for w in ncpoly.all_words(degree, d):
            if rng.uniform() < 0.3:
                terms[w] = complex(rng.normal(), rng.normal())
    if not terms:
        terms[(1,)] = 1.0
    return NCPoly(d, terms)


def test_09_vn_inequality_hundred_commuting_pairs(symmetric2_10):
    rng = np.random.default_rng(9)
    outcomes = {"pass": 0, "fail": 0, "inconclusive": 0}
    for _ in range(100):
        rep = random_commuting_pair(rng, int(rng.integers(2, 4)),
                                    float(rng.uniform(0.2, 0.98)))
        p = random_low_degree_poly(rng, 2, 3)
        q = random_low_degree_poly(rng, 2, 3)
        out = reps.vn_inequality_check(symmetric2_10, rep, p, q)
        outcomes[out["verdict"]] += 1
    assert outcomes["fail"] == 0
    assert outcomes["inconclusive"] <= 10


def test_10_maximal_piece_recovers_legal_coordinates(golden_6):
    full = subproduct.from_full(2, 6)
    sh = fock.build_shifts(fock.build_fock(full))
    rep = RepTuple(tuple(sh.matrices))
    out = reps.maximal_piece(golden_6, rep)
    f = sh.fock
    cols = []
    for n in range(7):
        frame = golden_6.fiber(n).frame
        lift = np.zeros((f.total_dim, frame.shape[1]), dtype=complex)
        lift[f.level_slice(n), :] = frame
        cols.append(lift)
    target = linalg.span(np.hstack(cols))
    assert out["dim"] == target.dim
    assert subspace_distance(out["subspace"], target) <= 1e-9


def test_11_induced_semigroup_law_and_choi_positivity(symmetric2_6):
    rng = np.random.default_rng(11)
    for _ in range(20):
        rep = random_commuting_pair(rng, 3, float(rng.uniform(0.3, 1.0)))
        semi = reps.CPSemigroup(symmetric2_6, rep)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for m in range(7):
            for n in range(7 - m):
                assert semi.semigroup_residual(m, n, a) <= 1e-9
        for n in range(7):
            assert semi.choi_min_eig(n) >= -1e-10


def test_12_stochastic_strong_commutation():
    uniform = np.full((3, 3), 1 / 3)
    split = np.array([[0.5, 0.0, 0.5],
                      [0.25, 0.5, 0.25],
                      [0.25, 0.5, 0.25]])
    out = cpmaps.strong_commute_stochastic(uniform, split)
    assert out["commute"] is True
    assert out["strong"] is False

    out = cpmaps.strong_commute_stochastic(split, split @ split)
    assert out["strong"] is False

    rng = np.random.default_rng(12)
    m = rng.uniform(size=(3, 3)) + 0.05
    gen = m / m.sum(axis=1, keepdims=True) - np.eye(3)
    p, q = expm(0.9 * gen), expm(1.7 * gen)
    out = cpmaps.strong_commute_stochastic(p, q)
    assert out["commute"] is True
    assert out["strong"] is True

    for _ in range(200):
        n = int(rng.integers(2, 6))
        p, q = random_commuting_stochastic_pair(rng, n)
        out = cpmaps.strong_commute_stochastic(p, q)
        if not out["commute"]:
            continue
        oracle = all(
            gram_dim_oracle(p, q, i, k)[0]
            == gram_dim_oracle(p, q, i, k)[1]
            for i in range(1, n + 1)
            for k in range(1, n + 1)
        )
        assert out["strong"] == oracle


def test_13_classification_decisions():
    q2 = np.array([[1, 2.0], [0.5, 1]], dtype=complex)
    q2_inv = np.array([[1, 0.5], [2.0, 1]], dtype=complex)
    q3 = np.array([[1, 3.0], [1 / 3, 1]], dtype=complex)
    assert classify.q_equivalent(q2, q2_inv)["equivalent"]
    assert not classify.q_equivalent(q2, q3)["equivalent"]

    rng = np.random.default_rng(13)
    hits = 0
    for _ in range(50):
        q = np.ones((3, 3), dtype=complex)
        for i in range(3):
            for j in range(i + 1, 3):
                v = rng.uniform(0.3, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                q[i, j], q[j, i] = v, 1 / v
        perm = rng.permutation(3)
        r = np.ones_like(q)
        for i in range(3):
            for j in range(3):
                if i != j:
                    r[perm[i], perm[j]] = q[i, j]
        out = classify.q_equivalent(q, r)
        if out["equivalent"] and out["residual"] <= 1e-10:
            hits += 1
    assert hits == 50

    anti = np.array([[0, 1.0], [-1.0, 0]], dtype=complex)
    assert classify.quad_equivalent(anti, np.zeros((2, 2)))["verdict"] == "no"

    rank1 = np.array([[1.0, 0], [0, 0]], dtype=complex)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    planted = 0.7 * np.exp(0.3j) * (u.T @ rank1 @ u)
    out = classify.quad_equivalent(rank1, planted)
    assert out["verdict"] == "yes"

    for _ in range(100):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        lam = rng.uniform(0.2, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        b = lam * (u.T @ a @ u)
        out = classify.quad_equivalent(a, b)
        assert out["verdict"] == "yes"
        assert out["residual"] <= 1e-8 * max(1.0, float(np.linalg.norm(b)))


def test_14_channel_power_dims_match_choi_oracle():
    ident = KrausChannel((np.eye(2, dtype=complex),))
    assert cpmaps.as_fiber_dims(ident, 4) == [1, 1, 1, 1, 1]

    rng = np.random.default_rng(14)
    ks = tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
               for _ in range(2))
    chan = KrausChannel(ks)

    def oracle(n):
        a = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        blocks = []
        for i in range(2):
            row = []
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                for _ in range(n):
                    e = chan.apply(e)
                row.append(e)
            blocks.append(row)
        c = np.block(blocks)
        w = np.linalg.eigvalsh((c + c.conj().T) / 2)
        return int(np.sum(w > 1e-9 * max(float(w[-1]), 1e-30)))

    dims = cpmaps.as_fiber_dims(chan, 4)
    assert dims == [oracle(n) for n in range(5)]
    assert cpmaps.dims_submultiplicative(dims)


def _adjacent_flips():
    flip = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            flip[j * 2 + i, i * 2 + j] = 1.0
    return np.kron(flip, np.eye(2)), np.kron(np.eye(2), flip)


def _flip_difference():
    f12, f23 = _adjacent_flips()
    return f12 - f23


def test_15_flip_difference_norm_is_two():
    # the swaps F12, F23 are self-adjoint unitaries, so ||F12 - F23|| is
    # max |1 - lambda| over the spectrum of F12 F23. That product is the
    # 3-cycle of the legs, so its spectrum is {1, w, conj(w)} with w^3 = 1;
    # -1 is not in it, and the bound 2 for unitaries is missed by 2 - sqrt(3).
    # This route uses eigenvalues only, apart from the opnorm under test.
    f12, f23 = _adjacent_flips()
    cycle = f12 @ f23
    assert np.abs(np.linalg.matrix_power(cycle, 3) - np.eye(8)).max() <= 1e-12
    by_spectrum = max(abs(1.0 - lam) for lam in np.linalg.eigvals(cycle))
    assert abs(linalg.opnorm(_flip_difference()) - by_spectrum) <= 1e-12
    assert abs((2.0 - by_spectrum) - (2.0 - math.sqrt(3.0))) <= 1e-12


def test_15_flip_difference_norm_measured_value():
    # adjacent swaps are reflections whose mirrors meet at 60 degrees, so
    # the difference has norm 2 sin(60) = sqrt(3)
    assert abs(linalg.opnorm(_flip_difference()) - math.sqrt(3.0)) <= 1e-12
