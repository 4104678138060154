import numpy as np
import pytest

from spsys import classify


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
    # the symmetric parts are zero: Takagi-factoring them meets Z = I
    a = np.array([[0, 1.5 - 0.5j], [-1.5 + 0.5j, 0]])
    w, s = classify.takagi_2x2((a + a.T) / 2)
    assert np.array_equal(s, [0.0, 0.0])
    assert np.abs(w @ w.conj().T - np.eye(2)).max() < 1e-15
    out = classify.quad_equivalent(a, -0.2j * a)
    assert out["verdict"] == "yes" and "polished" not in out["invariants"]
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
# character sets

def test_character_set_ball():
    cs = classify.CharacterSet(np.ones((3, 3), dtype=complex))
    assert cs.kind == "ball"
    assert cs.contains([0.5, 0.5, 0.5])
    assert not cs.contains([0.9, 0.9, 0.0])  # outside the unit ball


def test_character_set_glued_discs():
    q = planted_q(np.random.default_rng(5), 3)
    cs = classify.CharacterSet(q)
    assert cs.kind == "glued-discs"
    assert cs.contains([0.9, 0, 0])
    assert not cs.contains([0.5, 0.5, 0])


def test_character_set_independent_sets():
    q = np.ones((3, 3), dtype=complex)
    q[0, 1] = 2.0
    q[1, 0] = 0.5
    cs = classify.CharacterSet(q)
    assert cs.kind == "independent-sets"
    assert cs.edges == [(1, 2)]
    assert cs.contains([0.5, 0, 0.5])
    assert not cs.contains([0.5, 0.5, 0])
