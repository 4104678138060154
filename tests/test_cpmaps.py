import numpy as np
import pytest
from scipy.linalg import expm

from spsys import cpmaps
from spsys.cpmaps import KrausChannel, StochasticMatrix

from conftest import random_commuting_stochastic_pair, random_stochastic
from oracles import gram_dim_oracle

UNIFORM3 = np.full((3, 3), 1 / 3)
SPLIT3 = np.array([[0.5, 0.0, 0.5],
                   [0.25, 0.5, 0.25],
                   [0.25, 0.5, 0.25]])


def test_stochastic_matrix_validation():
    StochasticMatrix(UNIFORM3)
    with pytest.raises(ValueError):
        StochasticMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        StochasticMatrix(np.array([[1.5, -0.5], [0.5, 0.5]]))


def test_commute_check_residual():
    out = cpmaps.commute_check(UNIFORM3, SPLIT3)
    assert out["commute"]
    assert out["max_entry"] < 1e-12
    p = np.array([[0.9, 0.1], [0.2, 0.8]])
    q = np.array([[0.5, 0.5], [0.1, 0.9]])
    out = cpmaps.commute_check(p, q)
    assert not out["commute"]


def test_commuting_pair_that_fails_strong_commutation():
    out = cpmaps.strong_commute_stochastic(UNIFORM3, SPLIT3)
    assert out["commute"]
    assert out["strong"] is False
    w = out["witnesses"][0]
    assert {"i", "k", "count_qp", "count_pq"} <= set(w)
    assert w["count_qp"] != w["count_pq"]


def test_power_pair_fails_strong_commutation():
    out = cpmaps.strong_commute_stochastic(SPLIT3, SPLIT3 @ SPLIT3)
    assert out["commute"]
    assert out["strong"] is False


def test_exponential_semigroup_pair_strongly_commutes():
    rng = np.random.default_rng(0)
    g = random_stochastic(rng, 3)  # irreducible generator after shifting
    gen = g - np.eye(3)
    p = expm(0.7 * gen)
    q = expm(1.3 * gen)
    out = cpmaps.strong_commute_stochastic(p, q)
    assert out["commute"]
    assert out["strong"] is True


def test_noncommuting_pair_reports_no_strong_verdict():
    p = np.array([[0.9, 0.1], [0.2, 0.8]])
    q = np.array([[0.5, 0.5], [0.1, 0.9]])
    out = cpmaps.strong_commute_stochastic(p, q)
    assert not out["commute"]
    assert out["strong"] is None


def test_gram_oracle_matches_support_counts():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        p, q = random_commuting_stochastic_pair(rng, n)
        out = cpmaps.strong_commute_stochastic(p, q)
        if not out["commute"]:
            continue
        oracle_strong = all(
            gram_dim_oracle(p, q, i, k)[0]
            == gram_dim_oracle(p, q, i, k)[1]
            for i in range(1, n + 1)
            for k in range(1, n + 1)
        )
        assert out["strong"] == oracle_strong


def test_identity_channel_dims_are_all_one():
    chan = KrausChannel((np.eye(3, dtype=complex),))
    assert cpmaps.as_fiber_dims(chan, 4) == [1, 1, 1, 1, 1]


def test_unitary_channel_dims_are_all_one():
    rng = np.random.default_rng(2)
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    chan = KrausChannel((u,))
    assert cpmaps.as_fiber_dims(chan, 4) == [1, 1, 1, 1, 1]


def test_generic_two_kraus_dims_saturate():
    rng = np.random.default_rng(3)
    ks = tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
               for _ in range(2))
    chan = KrausChannel(ks)
    dims = cpmaps.as_fiber_dims(chan, 4)
    assert dims == [1, 2, 4, 4, 4]
    assert cpmaps.dims_submultiplicative(dims)


def test_nilpotent_channel_dims_collapse():
    k = np.array([[0, 1.0], [0, 0]], dtype=complex)
    chan = KrausChannel((k,))
    dims = cpmaps.as_fiber_dims(chan, 3)
    assert dims == [1, 1, 0, 0]
    assert cpmaps.dims_submultiplicative(dims)


def test_choi_rank_matches_matrix_unit_oracle():
    # second route to the Choi matrix: apply the iterated channel to each
    # matrix unit and assemble the block matrix directly
    rng = np.random.default_rng(4)
    ks = tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
               for _ in range(2))
    chan = KrausChannel(ks)

    def apply_power(a, n):
        for _ in range(n):
            a = chan.apply(a)
        return a

    for n in range(4):
        blocks = []
        for i in range(2):
            row = []
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                row.append(apply_power(e, n))
            blocks.append(row)
        choi = np.block(blocks)
        got = cpmaps.choi_matrix(chan, power=n)
        assert np.max(np.abs(got - choi)) <= 1e-12 * max(1.0, np.max(np.abs(choi)))
        w = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
        oracle = int(np.sum(w > 1e-9 * max(w[-1], 1e-30)))
        assert cpmaps.choi_rank(chan, power=n) == oracle


def test_superop_represents_channel():
    rng = np.random.default_rng(5)
    ks = tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
               for _ in range(2))
    chan = KrausChannel(ks)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    vec = a.reshape(-1, order="F")
    lhs = (chan.superop() @ vec).reshape(3, 3, order="F")
    assert np.allclose(lhs, chan.apply(a))


def test_dims_submultiplicative_detects_violation():
    assert cpmaps.dims_submultiplicative([1, 2, 4, 8])
    assert not cpmaps.dims_submultiplicative([1, 2, 5])
