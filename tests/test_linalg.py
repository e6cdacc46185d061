"""Core linear algebra: contracts, hand oracles, and random-draw properties."""

import numpy as np
import pytest

from qdecision import (
    DegenerateSpan,
    DensityOperator,
    Effect,
    HermitianOperator,
    InvalidEffect,
    InvariantViolation,
    NotHermitian,
    Projector,
    StateVector,
    hermitian_eig,
    projector_onto_span,
)

from conftest import random_hermitian, random_state, rng_for


# ---------------------------------------------------------------------------
# immutability


def test_validated_values_refuse_attribute_rebinding():
    psi = StateVector([1.0, 0.0])
    proj = Projector(np.diag([1.0, 0.0]))
    for obj, name in ((psi, "amplitudes"), (proj, "matrix"), (proj, "rank")):
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before


# ---------------------------------------------------------------------------
# trace


def test_trace_maximally_mixed_against_rank_one():
    rho = np.eye(2) / 2.0
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.trace(rho @ proj).real == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# typed values and their invariants


def test_state_vector_rejects_bad_norm():
    with pytest.raises(InvariantViolation, match="unit-norm"):
        StateVector([0.9, 0.0])


def test_state_vector_rejects_non_finite():
    with pytest.raises(InvariantViolation):
        StateVector([np.nan, 0.0])


def test_hermitian_operator_rejects_asymmetry():
    with pytest.raises(NotHermitian):
        HermitianOperator([[0.0, 1.0], [0.0, 0.0]])


def test_matrices_are_immutable():
    op = HermitianOperator(np.eye(2))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_projector_invariants():
    Projector(np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(InvariantViolation):
        Projector(np.diag([0.5, 0.0]))
    with pytest.raises(InvariantViolation):
        Projector(np.zeros((2, 2)))  # rank 0 is not a valid event projector


def test_density_operator_invariants():
    DensityOperator(np.eye(4) / 4.0)
    with pytest.raises(InvariantViolation):
        DensityOperator(np.diag([1.2, -0.2]))
    with pytest.raises(InvariantViolation):
        DensityOperator(np.diag([0.7, 0.7]))


def test_effect_invariants():
    Effect(np.diag([0.0, 0.3, 1.0]))
    with pytest.raises(InvalidEffect):
        Effect(np.diag([1.4, 0.0]))
    with pytest.raises(InvalidEffect):
        Effect(np.diag([-0.2, 0.5]))


# ---------------------------------------------------------------------------
# eigendecomposition


def test_eig_diagonal_case():
    sd = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(sd.eigenvalues, [1.0, 2.0, 3.0])
    # eigenvectors are signed standard basis vectors, permuted
    perm = np.abs(sd.eigenvectors)
    assert np.allclose(perm[:, 0], [0, 1, 0], atol=1e-12)
    assert np.allclose(perm[:, 1], [0, 0, 1], atol=1e-12)
    assert np.allclose(perm[:, 2], [1, 0, 0], atol=1e-12)


def test_eig_pauli_x_by_hand():
    sd = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(sd.eigenvalues, [-1.0, 1.0])
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(sd.eigenvectors[:, 0]), [inv_sqrt2, inv_sqrt2], atol=1e-12)
    assert np.allclose(sd.eigenvectors[:, 1], [inv_sqrt2, inv_sqrt2], atol=1e-12)


def test_eig_residual_random_r8():
    # oracle: rebuild V @ diag(w) @ V^dag and compare
    rng = rng_for(8)
    a = random_hermitian(8, rng)
    sd = hermitian_eig(a)
    rebuilt = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.conj().T
    assert np.linalg.norm(a - rebuilt, "fro") <= 1e-10 * max(1.0, np.linalg.norm(a, "fro"))


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 2.0], [0.0, 0.0]]))


def test_eig_residual_and_orthonormality_random_draws():
    # 200 random draws across r <= 16
    rng = rng_for(200)
    for _ in range(200):
        r = int(rng.integers(2, 17))
        a = random_hermitian(r, rng)
        sd = hermitian_eig(a)
        rebuilt = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.conj().T
        assert np.linalg.norm(a - rebuilt, "fro") <= 1e-10 * max(1.0, np.linalg.norm(a, "fro"))
        gram = sd.eigenvectors.conj().T @ sd.eigenvectors
        assert np.linalg.norm(gram - np.eye(r), "fro") <= 1e-10


def test_eig_degeneracy_grouping():
    sd = hermitian_eig(np.diag([1.0, 1.0, 2.0]))
    assert sd.groups == ((0, 1), (2,))
    assert [projector_onto_span(list(sd.eigenvectors[:, g].T)).rank for g in sd.groups] == [2, 1]


def test_eig_near_degenerate_pairs_stay_matched():
    # eigenvalues split by less than the grouping tolerance: the intra-group
    # reordering must keep (value, vector) pairs together
    rng = rng_for(24)
    u = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(u)
    w = np.array([1.0, 2.0, 2.0 + 1e-10, 3.0])
    a = (q * w) @ q.conj().T
    a = (a + a.conj().T) / 2.0
    sd = hermitian_eig(a)
    assert any(len(g) == 2 for g in sd.groups)
    rebuilt = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.conj().T
    assert np.linalg.norm(a - rebuilt, "fro") <= 1e-10 * max(1.0, np.linalg.norm(a, "fro"))


def test_eig_is_deterministic():
    rng = rng_for(15)
    a = random_hermitian(6, rng)
    sd1 = hermitian_eig(a)
    sd2 = hermitian_eig(a.copy())
    assert np.array_equal(sd1.eigenvalues, sd2.eigenvalues)
    assert np.array_equal(sd1.eigenvectors, sd2.eigenvectors)


def test_eigenprojectors_of_simple_spectrum_resolve_identity():
    rng = rng_for(16)
    for _ in range(10):
        sd = hermitian_eig(random_hermitian(5, rng))
        assert len(sd.groups) == 5
        projs = [projector_onto_span(list(sd.eigenvectors[:, g].T)) for g in sd.groups]
        total = sum(p.matrix for p in projs)
        assert np.linalg.norm(total - np.eye(5), "fro") <= 1e-10
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                assert np.linalg.norm(projs[i].matrix @ projs[j].matrix, "fro") <= 1e-10


# ---------------------------------------------------------------------------
# span projectors


def test_projector_onto_e1():
    p = projector_onto_span([StateVector([1.0, 0.0])])
    assert np.allclose(p.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert p.rank == 1


def test_projector_at_angle_matches_outer_product():
    # oracle: outer product of the unit vector with itself
    t = np.deg2rad(40.0)
    u = np.array([np.cos(t), np.sin(t)])
    p = projector_onto_span([StateVector(u)])
    assert np.allclose(p.matrix, np.outer(u, u), atol=1e-12)
    assert abs(u[0] - 0.766044) < 1e-6 and abs(u[1] - 0.642788) < 1e-6


def test_projector_onto_plane():
    p = projector_onto_span([StateVector([1, 0, 0]), StateVector([0, 1, 0])])
    assert np.allclose(p.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert p.rank == 2


def test_projector_fixes_its_span():
    rng = rng_for(21)
    vs = [random_state(5, rng) for _ in range(3)]
    p = projector_onto_span(vs)
    for v in vs:
        assert np.linalg.norm(p.matrix @ v.amplitudes - v.amplitudes) <= 1e-10


def test_projector_rejects_dependent_vectors():
    v = StateVector([1.0, 0.0])
    with pytest.raises(DegenerateSpan):
        projector_onto_span([v, v])


def test_constructed_projectors_are_idempotent_and_hermitian():
    rng = rng_for(22)
    for _ in range(20):
        r = int(rng.integers(2, 9))
        k = int(rng.integers(1, r + 1))
        vs = [random_state(r, rng) for _ in range(k)]
        try:
            p = projector_onto_span(vs)
        except DegenerateSpan:
            continue
        assert np.linalg.norm(p.matrix @ p.matrix - p.matrix, "fro") <= 1e-10
        assert np.abs(p.matrix - p.matrix.conj().T).max() <= 1e-12

