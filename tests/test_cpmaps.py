import numpy as np
import pytest
from scipy.linalg import expm

from spsys import cpmaps, linalg, reps
from spsys.cpmaps import KrausChannel, StochasticMatrix

from conftest import budget_run, random_commuting_stochastic_pair, random_stochastic
from oracles import (
    choi_matrix, choi_rank, gram_dim_oracle, kraus_word_system, superop,
)

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


def _sparse_pair(rng, n):
    """Two nonnegative n x n matrices with exact zeros and entries down to 1e-7,
    so that some products fall below the count's tolerance."""
    return [rng.random((n, n)) ** 4 * (rng.random((n, n)) < 0.4) for _ in range(2)]


@pytest.mark.parametrize("n", [1, 3, 40])
def test_support_counts_by_rows_match_the_whole_product(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        p, q = _sparse_pair(rng, n)
        whole = np.sum(np.abs(q[:, :, None] * p[None, :, :]) > cpmaps.NONZERO_TOL, axis=1)
        assert np.array_equal(cpmaps._support_counts(q, p, cpmaps.NONZERO_TOL), whole)


def test_strong_commute_holds_o_n2_within_its_estimates(monkeypatch):
    # n = 200: the whole product array would be 17·n³ bytes, 130 MiB
    n = 200
    rng = np.random.default_rng(34)
    sparse = [m / m.sum(axis=1, keepdims=True) for m in _sparse_pair(rng, n)]
    for p, q in (random_commuting_stochastic_pair(rng, n), sparse):
        with budget_run(spy=True) as run:
            out = cpmaps.strong_commute_stochastic(p, q)
        assert [what for what, _, _ in run.checks] == [
            f"support counts of {n} x {n}", f"strong-commutation witnesses of {n} x {n}"]
        for (_, needed, _), peak in zip(run.checks, run.peaks):
            assert peak <= needed
    assert out["witnesses"] and run.checks[1][1] >= 256 * len(out["witnesses"])
    pair = random_commuting_stochastic_pair(rng, n)
    with budget_run() as run:
        cpmaps.strong_commute_stochastic(*pair)
    assert run.peak <= 64 * n * n
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 17 * n * n)
    monkeypatch.setattr(cpmaps, "_support_counts", None)  # refused before counting
    with pytest.raises(linalg.MemoryBudgetError, match=f"support counts of {n} x {n}"):
        cpmaps.strong_commute_stochastic(p, q)


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
        got = choi_matrix(chan, power=n)
        assert np.max(np.abs(got - choi)) <= 1e-12 * max(1.0, np.max(np.abs(choi)))
        w = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
        oracle = int(np.sum(w > 1e-9 * max(w[-1], 1e-30)))
        assert choi_rank(chan, power=n) == oracle


def test_superop_represents_channel():
    rng = np.random.default_rng(5)
    ks = tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
               for _ in range(2))
    chan = KrausChannel(ks)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    vec = a.reshape(-1, order="F")
    lhs = (superop(chan) @ vec).reshape(3, 3, order="F")
    assert np.allclose(lhs, chan.apply(a))


def _random_kraus(rng, d, h):
    return tuple(rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h)) for _ in range(d))


def _sweep_channels():
    """Seeded channels of every kind the span recursion must agree on."""
    rng = np.random.default_rng(21)
    out = []
    for d in (1, 2, 3):
        for h in (1, 2, 3, 5, 8, 16):
            out.append(pytest.param(_random_kraus(rng, d, h), id=f"random-d{d}-h{h}"))
    for d, h in [(2, 4), (3, 6), (2, 16)]:  # commuting diagonal: symmetric dims, capped at h
        diagonal = tuple(np.diag(rng.normal(size=h)) for _ in range(d))
        out.append(pytest.param(diagonal, id=f"diagonal-d{d}-h{h}"))
    for h in (2, 3, 5, 8):  # the nilpotent shift alone, and with its square
        shift = np.eye(h, k=1)
        out.append(pytest.param((shift,), id=f"nilpotent-h{h}"))
        out.append(pytest.param((shift, shift @ shift), id=f"nilpotent-pair-h{h}"))
    for h in (2, 4, 7):  # one Kraus operator twice, and a multiple of it
        k = _random_kraus(rng, 1, h)[0]
        out.append(pytest.param((k, k, 0.5j * k), id=f"repeated-h{h}"))
    return out


@pytest.mark.parametrize("kraus", _sweep_channels())
def test_span_recursion_matches_the_choi_oracle(kraus):
    chan = KrausChannel(kraus)
    assert cpmaps.as_fiber_dims(chan, 6) == [choi_rank(chan, power=n) for n in range(7)]


def test_negative_power_is_refused():
    chan = KrausChannel((np.eye(2, dtype=complex),))
    with pytest.raises(ValueError, match="highest power"):
        cpmaps.as_fiber_dims(chan, -1)
    assert cpmaps.as_fiber_dims(chan, 0) == [1]


def _level_peaks(chan, n):
    """(estimate, traced peak) of every level, the peak from the level's budget
    check to the next, relative to the traced memory before the call."""
    with budget_run(spy=True) as run:
        cpmaps.as_fiber_dims(chan, n)
    return [(total, peak) for (_, total, _), peak in zip(run.checks, run.peaks)]


@pytest.mark.parametrize("d, h, n", [(2, 64, 6), (2, 96, 6), (2, 32, 6), (3, 16, 5),
                                     (1, 24, 4), (2, 2, 6)])
def test_level_estimates_lie_between_one_and_two_traced_peaks(d, h, n):
    chan = KrausChannel(_random_kraus(np.random.default_rng(31), d, h))
    levels = _level_peaks(chan, n)
    assert len(levels) == n  # one estimate per level, none at level 0
    for needed, peak in levels:
        assert peak <= needed <= 2 * peak


def test_a_refused_level_forms_no_stack(monkeypatch):
    chan = KrausChannel(_random_kraus(np.random.default_rng(32), 2, 16))
    levels = _level_peaks(chan, 6)
    stacks = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        stacks.append(args)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    monkeypatch.setattr(linalg, "BUDGET_BYTES", levels[4][0] - 1)  # level 5 is refused
    with pytest.raises(linalg.MemoryBudgetError, match="channel level 5 of 16 x 16"):
        cpmaps.as_fiber_dims(chan, 6)
    assert len(stacks) == 4


def test_dead_levels_take_no_budget():
    levels = _level_peaks(KrausChannel((np.eye(3, k=1),)), 8)
    assert len(levels) == 3  # V^3 = 0: levels 4..8 are zero without a check


def _loop_channels():
    rng = np.random.default_rng(33)
    return [_random_kraus(rng, 2, 2), _random_kraus(rng, 2, 3), _random_kraus(rng, 3, 2),
            _random_kraus(rng, 1, 4),
            tuple(np.diag(rng.normal(size=4)) for _ in range(2)),
            (np.eye(3, k=1), _random_kraus(rng, 1, 3)[0]),
            (np.eye(4, k=1),)]


@pytest.mark.parametrize("kraus", _loop_channels(),
                         ids=["d2-h2", "d2-h3", "d3-h2", "d1-h4", "diagonal", "nilpotent-pair",
                              "nilpotent"])
def test_channel_system_reconstructs_the_channel(kraus):
    # the paper's association: X_V from the polynomials that vanish on V has
    # the dims of the span recursion, V represents it, and its CP semigroup
    # is the channel's powers
    depth = 4
    scale = 0.9 / np.linalg.norm(np.hstack(kraus), 2)
    chan = KrausChannel(tuple(scale * k for k in kraus))
    system = kraus_word_system(chan, depth)
    assert system.dims() == cpmaps.as_fiber_dims(chan, depth)
    rep = reps.RepTuple(chan.kraus)
    assert reps.is_representation(system, rep)["ok"]
    semigroup = reps.CPSemigroup(system, rep)
    a = np.random.default_rng(34).normal(size=(chan.h, chan.h)) + 0j
    power = a
    for n in range(depth + 1):
        assert np.max(np.abs(semigroup.theta(n, a) - power)) <= 1e-12
        power = chan.apply(power)


def test_dims_submultiplicative_detects_violation():
    assert cpmaps.dims_submultiplicative([1, 2, 4, 8])
    assert not cpmaps.dims_submultiplicative([1, 2, 5])
