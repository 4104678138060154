import json
import subprocess
import sys

import numpy as np
import pytest

from spsys import classify, formats


def planted_q(rng, d):
    q = np.ones((d, d), dtype=complex)
    for i in range(d):
        for j in range(i + 1, d):
            v = rng.uniform(0.3, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            q[i, j] = v
            q[j, i] = 1 / v
    return q


def permute_q(q, perm):
    d = q.shape[0]
    r = np.ones_like(q)
    for i in range(d):
        for j in range(d):
            if i != j:
                r[perm[i], perm[j]] = q[i, j]
    return r


# ---------------------------------------------------------------------------
# q-matrix equivalence

def test_q_two_and_half_are_equivalent():
    a = np.array([[1, 2.0], [0.5, 1]], dtype=complex)
    b = np.array([[1, 0.5], [2.0, 1]], dtype=complex)
    out = classify.q_equivalent(a, b)
    assert out["equivalent"]
    assert out["perm"] == (2, 1)
    assert out["residual"] < 1e-12


def test_q_two_and_three_are_not_equivalent():
    a = np.array([[1, 2.0], [0.5, 1]], dtype=complex)
    b = np.array([[1, 3.0], [1 / 3, 1]], dtype=complex)
    out = classify.q_equivalent(a, b)
    assert not out["equivalent"]
    assert out["perm"] is None
    assert out["closest_perm"] in ((1, 2), (2, 1))


def test_q_identity_permutation():
    rng = np.random.default_rng(0)
    q = planted_q(rng, 3)
    out = classify.q_equivalent(q, q)
    assert out["equivalent"]
    assert out["perm"] == (1, 2, 3)


def test_q_planted_permutation_recovered():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        q = planted_q(rng, d)
        perm = rng.permutation(d)
        r = permute_q(q, perm)
        out = classify.q_equivalent(q, r)
        assert out["equivalent"]
        assert out["residual"] < 1e-10


def test_q_rejects_inadmissible():
    with pytest.raises(ValueError):
        classify.q_equivalent(
            np.array([[1, 2.0], [2.0, 1]], dtype=complex),
            np.array([[1, 2.0], [0.5, 1]], dtype=complex),
        )


def test_q_off_diagonal_one_is_outside_family():
    q1 = np.ones((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        classify.q_equivalent(q1, q1)


# ---------------------------------------------------------------------------
# quadratic equivalence

def test_takagi_factorization_2x2():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = m + m.T  # complex symmetric
        w, s = classify.takagi_2x2(a)
        assert np.linalg.norm(w @ w.conj().T - np.eye(2)) < 1e-10
        assert np.linalg.norm(w @ np.diag(s) @ w.T - a) < 1e-8 * max(1, np.linalg.norm(a))
        assert s[0] >= s[1] >= 0


def _symmetric_unitary(phases, angle):
    """Q diag(e^{i·phases}) Qᵗ for the real rotation Q by `angle`: a symmetric unitary."""
    c, s = np.cos(angle), np.sin(angle)
    q = np.array([[c, -s], [s, c]])
    z = q @ np.diag(np.exp(1j * np.asarray(phases))) @ q.T
    return (z + z.T) / 2


@pytest.mark.parametrize("z", [
    np.eye(2, dtype=complex),
    -np.eye(2, dtype=complex),
    # eigenvalues -1 ± 1e-15i, on both sides of the principal branch cut
    _symmetric_unitary([np.pi - 1e-15, -np.pi + 1e-15], 0.3),
    _symmetric_unitary([2.5, -2.9], 1.1),
], ids=["identity", "minus-identity", "across-the-cut", "generic"])
def test_unitary_square_root_is_symmetric_and_unitary(z):
    r = classify._unitary_sqrt_2x2(z)
    assert np.abs(r @ r - z).max() < 1e-14
    assert np.abs(r - r.T).max() == 0.0
    assert np.abs(r @ r.conj().T - np.eye(2)).max() < 1e-14


def test_takagi_of_a_rank_one_symmetric_part():
    v = np.array([0.6 - 1.1j, 0.3 + 0.4j])
    a = np.outer(v, v)
    w, s = classify.takagi_2x2(a)
    assert np.abs(w @ w.conj().T - np.eye(2)).max() < 1e-14
    assert np.abs(w @ np.diag(s) @ w.T - a).max() < 1e-14
    assert s[1] < 1e-15 * s[0]


def test_purely_antisymmetric_pairs_need_no_polish():
    # the symmetric parts are zero: Takagi-factoring them meets Z = I, and the
    # closed-form witness is exact
    a = np.array([[0, 1.5 - 0.5j], [-1.5 + 0.5j, 0]])
    w, s = classify.takagi_2x2((a + a.T) / 2)
    assert np.array_equal(s, [0.0, 0.0])
    assert np.abs(w @ w.conj().T - np.eye(2)).max() < 1e-15
    out = classify.quad_equivalent(a, -0.2j * a)
    assert out["verdict"] == "yes"
    assert out["residual"] < 1e-15


def test_quad_zero_vs_zero():
    z = np.zeros((2, 2))
    assert classify.quad_equivalent(z, z)["verdict"] == "yes"


def test_quad_zero_vs_nonzero():
    z = np.zeros((2, 2))
    a = np.array([[1.0, 0], [0, 0]], dtype=complex)
    assert classify.quad_equivalent(z, a)["verdict"] == "no"
    assert classify.quad_equivalent(a, z)["verdict"] == "no"


def test_quad_antisymmetric_vs_zero():
    a = np.array([[0, 1.0], [-1.0, 0]], dtype=complex)
    assert classify.quad_equivalent(a, np.zeros((2, 2)))["verdict"] == "no"


def test_quad_antisymmetric_scalings_match():
    a = np.array([[0, 1.0], [-1.0, 0]], dtype=complex)
    out = classify.quad_equivalent(a, 2.5j * a)
    assert out["verdict"] == "yes"
    assert out["residual"] < 1e-10


def test_quad_rank_one_planted():
    rng = np.random.default_rng(3)
    a = np.array([[1.0, 0], [0, 0]], dtype=complex)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    lam = 1.3 * np.exp(0.8j)
    b = lam * (u.T @ a @ u)
    out = classify.quad_equivalent(a, b)
    assert out["verdict"] == "yes"
    assert out["residual"] < 1e-8


def test_quad_planted_instances_verified_by_witness():
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        lam = rng.uniform(0.2, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        b = lam * (u.T @ a @ u)
        out = classify.quad_equivalent(a, b)
        assert out["verdict"] == "yes"
        # re-verify the returned witness independently
        lam_w, u_w = out["lam"], out["u"]
        assert np.linalg.norm(u_w @ u_w.conj().T - np.eye(2)) < 1e-8
        residual = np.linalg.norm(lam_w * (u_w.T @ a @ u_w) - b)
        assert residual < 1e-8 * max(1.0, np.linalg.norm(b))


def test_quad_symmetric_rank_profiles_separate():
    a = np.diag([1.0, 0.5]).astype(complex)
    b = np.diag([1.0, 0.6]).astype(complex)
    out = classify.quad_equivalent(a, b)
    assert out["verdict"] == "no"
    c = np.array([[1.0, 0], [0, 0]], dtype=complex)
    assert classify.quad_equivalent(a, c)["verdict"] == "no"


def test_quad_mixed_invariant_separates():
    # same symmetric singular values, different antisymmetric part
    a = np.eye(2, dtype=complex)
    b = a + np.array([[0, 0.5], [-0.5, 0]], dtype=complex)
    out = classify.quad_equivalent(a, b)
    assert out["verdict"] == "no"


# ---------------------------------------------------------------------------
# the closed form answers every equivalent pair

def _unitary(rng):
    return np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


_J = np.array([[0, 1], [-1, 0]])
SWEEP_FAMILIES = {
    "random": lambda rng: _complex(rng, 2, 2),
    "symmetric": lambda rng: (lambda m: m + m.T)(_complex(rng, 2, 2)),
    "antisymmetric": lambda rng: _complex(rng, 1)[0] * _J,
    "rank-one": lambda rng: (lambda v: np.outer(v, v))(_complex(rng, 2)),
    "diagonal": lambda rng: np.diag(_complex(rng, 2)),
}
# symmetric parts with singular values 1 and 1 - eps, plus c J
NEAR_DEGENERATE = [(eps, c) for eps in (0.0, 1e-12, 1e-9, 1e-6)
                   for c in (0.0, 1e-15, 1e-13, 0.3, 1j)]
SWEEP = [*SWEEP_FAMILIES, "near-degenerate"]


def _near_degenerate(rng, eps, c):
    w = _unitary(rng)
    return w @ np.diag([1.0, 1.0 - eps]) @ w.T + c * _J


def _sweep_pairs(family, seed):
    """(A, B = λ Uᵗ A U + noise·N, noise) for seeded A, λ, U and N: for a family,
    20 exact pairs and 20 with noise 1e-9; for each near-degenerate case, 3 and 3."""
    rng = np.random.default_rng(seed)
    if family == "near-degenerate":
        makes = [lambda rng, e=eps, c=c: _near_degenerate(rng, e, c)
                 for eps, c in NEAR_DEGENERATE] * 3
    else:
        makes = [SWEEP_FAMILIES[family]] * 20
    for make in makes:
        for noise in (0.0, 1e-9):
            a = make(rng)
            lam = rng.uniform(0.2, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            u = _unitary(rng)
            yield a, lam * (u.T @ a @ u) + noise * _complex(rng, 2, 2), noise


@pytest.mark.parametrize("family", SWEEP)
def test_quad_sweep_answers_equivalent_pairs_in_closed_form(family):
    # every pair answers yes with its closed-form witness within the threshold,
    # also with 1e-9 noise on B: the symmetric ranks are decided at the
    # threshold, so a symmetric part of noise does not count
    verdicts = {0.0: [], 1e-9: []}
    for a, b, noise in _sweep_pairs(family, 40 + SWEEP.index(family)):
        out = classify.quad_equivalent(a, b)
        verdicts[noise].append(out["verdict"])
        if out["verdict"] == "yes":
            lam, u = out["lam"], out["u"]
            assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
            residual = np.linalg.norm(lam * (u.T @ a @ u) - b)
            assert residual == pytest.approx(out["residual"], rel=1e-6, abs=1e-15)
            assert out["residual"] <= out["threshold"]
    assert set(verdicts[0.0]) == set(verdicts[1e-9]) == {"yes"}
    assert len(verdicts[0.0]) == len(verdicts[1e-9]) >= 20


def test_quad_symmetric_rank_is_decided_at_the_witness_threshold():
    # B = 0.5 J + N with ||N|| = 1.9e-9: the witness λ = 0.5, U = I meets the
    # threshold 1e-8, and N's symmetric part, below it, does not count as rank
    rng = np.random.default_rng(0)
    noise = 1e-9 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    j = _J.astype(complex)
    out = classify.quad_equivalent(j, 0.5 * j + noise)
    assert out["verdict"] == "yes" and out["invariants"]["sym_rank"] == (0, 0)
    assert out["residual"] <= np.linalg.norm(noise) < out["threshold"] == 1e-8
    assert out["lam"] == pytest.approx(0.5, abs=1e-8)
    # a symmetric part above the threshold is rank, and the pair is not equivalent
    sym = 1e-6 * np.array([[1, 0], [0, 0]])
    assert classify.quad_equivalent(j, 0.5 * j + sym)["invariants"]["sym_rank"] == (0, 1)
    assert classify.quad_equivalent(j, 0.5 * j + sym)["verdict"] == "no"


@pytest.mark.parametrize("swap", [False, True], ids=["ranks-2-1", "ranks-1-2"])
def test_quad_rank_mismatch_within_the_reach_is_decided_by_the_witness(swap):
    # s2 = 1.2e-8 counts as rank at the threshold 1e-8 and 0.8e-8 does not, yet
    # λ = 1, U = I has residual 4e-9: a change of B within the reach gives it
    # A's rank, so the witness decides
    a, b = np.diag([1, 1.2e-8]), np.diag([1, 0.8e-8])
    if swap:
        a, b = b, a
    out = classify.quad_equivalent(a, b)
    assert out["invariants"]["sym_rank"] == ((1, 2) if swap else (2, 1))
    assert out["verdict"] == "yes" and out["residual"] <= out["threshold"] == 1e-8
    residual = np.linalg.norm(out["lam"] * (out["u"].T @ a @ out["u"]) - b)
    assert residual == pytest.approx(4e-9, rel=1e-6)


def test_quad_rank_mismatch_outside_the_reach_is_no():
    # a second singular value 1e-3 is far above the threshold 1e-8 on one side
    # and 0 on the other
    a, b = np.diag([1, 1e-3]), np.diag([1, 0.0])
    assert classify.quad_equivalent(a, b)["verdict"] == "no"
    assert classify.quad_equivalent(b, a)["verdict"] == "no"
    assert classify.quad_equivalent(b, a)["invariants"]["sym_rank"] == (1, 2)


@pytest.mark.parametrize("scale", [1e-9, 1e-12, 1e-20])
def test_quad_symmetric_rank_of_a_b_within_the_threshold_of_zero(scale):
    # ||B|| is below the threshold 1e-8, so the rank level is capped at half
    # of each norm: a matrix with no antisymmetric part keeps its rank, and
    # the answers are the exact ones (before the cap, A = I gave rank 0 and
    # divided by its zero antisymmetric coefficient)
    eye, j = np.eye(2), _J.astype(complex)
    out = classify.quad_equivalent(eye, scale * eye)
    assert out["verdict"] == "yes" and out["invariants"]["sym_rank"] == (2, 2)
    assert out["lam"] == pytest.approx(scale) and out["residual"] == 0.0
    out = classify.quad_equivalent(eye, scale * j)
    assert out["verdict"] == "no" and out["invariants"]["sym_rank"] == (2, 0)
    out = classify.quad_equivalent(j, scale * j)
    assert out["verdict"] == "yes" and out["invariants"]["sym_rank"] == (0, 0)
    rng = np.random.default_rng(7)
    for family in ("symmetric", "rank-one", "diagonal"):
        a = SWEEP_FAMILIES[family](rng)
        u = _unitary(rng)
        out = classify.quad_equivalent(a, scale * (u.T @ a @ u))
        assert out["verdict"] == "yes" and out["invariants"]["sym_rank"][0] >= 1


def _planted_gap_pair(rank):
    """(A, B' = λ Uᵗ A U) with ||B'|| about 0.36 and the Takagi factors of B'_s:
    for rank 1, A = v vᵗ + 0.9 J (q = |c0|/s1 = 0.72); for rank 2, a generic A."""
    a = (np.outer([1.0, 0.5j], [1.0, 0.5j]) + 0.9 * _J if rank == 1
         else np.array([[1.0, 0.3 + 0.2j], [0.1j, 0.6]]))
    c, s = np.cos(0.7), np.sin(0.7)
    u = np.array([[c, -s], [s, c]]) @ np.diag([1, np.exp(0.3j)])
    b = 0.2 * np.exp(1.1j) * (u.T @ a @ u)
    w, _ = classify.takagi_2x2((b + b.T) / 2)
    return a, b, w


def _gap_direction(b, w, direction):
    """A unit (Frobenius) change of B that moves one piece of its data."""
    c = (b - b.T)[0, 1] / 2
    return {"s1": np.outer(w[:, 0], w[:, 0]), "s2": np.outer(w[:, 1], w[:, 1]),
            "|c|": c / abs(c) * _J / np.sqrt(2),
            "arg c": 1j * c / abs(c) * _J / np.sqrt(2)}[direction]


GAP_CASES = [(1, "s1"), (1, "|c|"), (2, "s1"), (2, "s2"), (2, "|c|"), (2, "arg c")]


@pytest.mark.parametrize("rank, direction", GAP_CASES,
                         ids=[f"rank{r}-{d}" for r, d in GAP_CASES])
def test_quad_no_only_when_no_witness_meets_the_threshold(rank, direction):
    # B = B' + δ·D, ||D|| = 1: the planted witness has residual δ. The
    # invariants are compared at the threshold, so no pair with δ within it
    # answers no (the invariants once were compared at a fixed relative 1e-8,
    # and a rank-one pair with a witness of residual 5.3e-9 answered no), and
    # a change ten times the threshold still does
    a, bp, w = _planted_gap_pair(rank)
    change = _gap_direction(bp, w, direction)
    verdicts = []
    for delta in np.geomspace(1e-10, 1e-7, 16):
        out = classify.quad_equivalent(a, bp + delta * change)
        assert out["invariants"]["sym_rank"] == (rank, rank)
        verdicts.append(out["verdict"])
        if delta <= out["threshold"]:
            assert out["verdict"] != "no", delta
    assert verdicts[0] == "yes" and verdicts[-1] == "no"


def test_quad_rank_one_pair_in_the_old_invariant_gap():
    # |c| moved by 6e-9 (a change of norm 8.5e-9) moves q = |c0|/s1 = 0.72 by
    # 2.4e-8, over the old 1e-8·max(1, q); the closed-form witness has
    # residual 8.5e-9, under the threshold 1e-8
    a, bp, w = _planted_gap_pair(1)
    out = classify.quad_equivalent(a, bp + 6e-9 * np.sqrt(2) * _gap_direction(bp, w, "|c|"))
    qa, qb = out["invariants"]["q"]
    assert 2.3e-8 < qb - qa < 2.5e-8
    assert out["verdict"] == "yes"
    assert out["residual"] == pytest.approx(6e-9 * np.sqrt(2), rel=1e-3)


def test_quad_witness_miss_is_inconclusive_with_its_residual(tmp_path):
    # an equivalent pair whose closed-form witness (residual at roundoff) is
    # held to a threshold below that residual: the miss is reported, not
    # searched away, and the command exits 2 with scipy unloadable
    a = np.array([[1, 2 - 1j], [0.3j, -0.7]])
    c, s = np.cos(0.4), np.sin(0.4)
    u = np.array([[c, -s], [s, c]]) @ np.diag([1, 1j])
    b = 0.8j * (u.T @ a @ u)
    exact = classify.quad_equivalent(a, b)
    assert exact["verdict"] == "yes" and 0 < exact["residual"] < 1e-14
    out = classify.quad_equivalent(a, b, witness_tol=1e-30)
    assert out["verdict"] == "inconclusive"
    assert out["residual"] == exact["residual"] > out["threshold"]
    assert out["lam"] is None and out["u"] is None
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    for m, path in zip((a, b), paths):
        formats.dump_json(formats.encode_matrix(m), path)
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "from spsys import cli\n"
              "sys.exit(cli.main(['classify', 'quad', *sys.argv[1:], '--tol', '1e-30']))\n")
    proc = subprocess.run([sys.executable, "-c", script, *paths],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    report = json.loads(proc.stdout)
    (check,) = report["checks"]
    assert check["verdict"] == "inconclusive" and report["equivalent"] is None
    assert check["residual"] == exact["residual"] > check["threshold"]
