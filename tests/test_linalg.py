"""Core linear algebra: contracts, hand oracles, and random-draw properties."""

import numpy as np
import pytest

from qdecision import (
    DecisionVariable,
    DegenerateSpan,
    DensityOperator,
    DimensionMismatch,
    Effect,
    GPMSample,
    HermitianOperator,
    InvalidEffect,
    InvariantViolation,
    LikelihoodTable,
    NotHermitian,
    Projector,
    StateVector,
    event_probability,
    gpm_evaluate,
    hermitian_eig,
    outcome_distribution,
    projector_onto_span,
)
from qdecision import tolerances as tol
from qdecision.linalg import _frozen, as_complex_matrix
from qdecision.variables import UnitaryOperator, variable_from_spectrum

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


def _variable():
    return variable_from_spectrum("v", [0.0, 1.0], [[[1.0, 0.0]], [[0.0, 1.0]]])


_IMMUTABLE_ATTRIBUTES = {
    "DecisionVariable": (_variable, ("name", "values", "_index", "eigenprojectors", "operator")),
    "DecisionVariable-checked": (lambda: DecisionVariable("v", [0.0, 1.0], _variable().eigenprojectors), ("values",)),
    "UnitaryOperator": (lambda: UnitaryOperator(np.eye(2)), ("matrix",)),
    "LikelihoodTable": (lambda: LikelihoodTable(_variable(), {"z": [1.0, 1.0]}), ("variable", "entries")),
}


@pytest.mark.parametrize("make, names", _IMMUTABLE_ATTRIBUTES.values(), ids=_IMMUTABLE_ATTRIBUTES.keys())
def test_variables_and_tables_refuse_attribute_rebinding(make, names):
    obj = make()
    for name in names:
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, before)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(obj, name)
        assert getattr(obj, name) is before


def test_a_variable_reports_the_values_it_was_built_with():
    v, psi = _variable(), StateVector([0.6, 0.8])
    with pytest.raises(AttributeError):
        v.values = (5.0, 6.0)
    assert outcome_distribution(psi, v).values == (0.0, 1.0)


def test_a_likelihood_table_owns_its_rows():
    row = np.array([0.25, 0.5])
    table = LikelihoodTable(_variable(), {"z": row, "y": [0.75, 0.5]})
    row[0] = 0.0
    assert row.flags.writeable and table.entries["z"][0] == 0.25
    with pytest.raises(TypeError):
        table.entries["z"] = row


_FROZEN_ARRAYS = {
    "StateVector": lambda: StateVector([1.0, 0.0]).amplitudes,
    "StateVector-column": lambda: StateVector([[1.0], [0.0]]).amplitudes,  # reshaped to a view of its copy
    "StateVector._trusted": lambda: StateVector._trusted(np.array([1.0, 0.0j])).amplitudes,
    "HermitianOperator": lambda: HermitianOperator(np.eye(2)).matrix,
    "HermitianOperator._trusted": lambda: HermitianOperator._trusted(np.eye(2, dtype=complex)).matrix,
    "Projector": lambda: Projector(np.diag([1.0, 0.0])).matrix,
    "Projector._trusted": lambda: Projector._trusted(_frozen(np.diag([1.0, 0.0j])), 1).matrix,
    "variable_from_spectrum projector": lambda: _variable().eigenprojectors[0].matrix,
    "DensityOperator": lambda: DensityOperator(np.eye(2) / 2.0).matrix,
    "DensityOperator._trusted": lambda: DensityOperator._trusted(np.eye(2, dtype=complex) / 2.0).matrix,
    "Effect": lambda: Effect(np.eye(2) / 2.0).matrix,
    "Effect._trusted": lambda: Effect._trusted(np.eye(2, dtype=complex) / 2.0).matrix,
    "UnitaryOperator": lambda: UnitaryOperator(np.eye(2)).matrix,
    "DecisionVariable.operator": lambda: _variable().operator.matrix,
}


@pytest.mark.parametrize("make", _FROZEN_ARRAYS.values(), ids=_FROZEN_ARRAYS.keys())
def test_value_arrays_cannot_be_made_writeable_again(make):
    arr = make()
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 0.5
    with pytest.raises(ValueError):
        arr.setflags(write=True)


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


@pytest.mark.parametrize("make, name", [
    (StateVector, "state vector"),
    (lambda m: HermitianOperator([m, [0, 1]]), "HermitianOperator"),
    (lambda m: Projector([m, [0, 0]]), "Projector"),
    (lambda m: DensityOperator([m, [0, 0]]), "DensityOperator"),
    (lambda m: Effect([m, [0, 0]]), "Effect"),
    (lambda m: UnitaryOperator([m, [0, 1]]), "matrix"),
])
@pytest.mark.parametrize("big", [10**400, -(10**400)])
def test_an_int_beyond_the_float_range_is_a_non_finite_entry(make, name, big):
    with pytest.raises(InvariantViolation, match=f"^{name} contains non-finite entries$"):
        make([big, 0])


def test_state_vector_rejects_an_empty_vector():
    with pytest.raises(DimensionMismatch, match="^state vector cannot be empty$"):
        StateVector([])


def test_as_complex_matrix_rejects_other_shapes_and_non_finite_entries():
    for data in ([1.0, 0.0], 10**400, [[[1.0]]]):
        with pytest.raises(DimensionMismatch, match="^m must be two-dimensional, got shape "):
            as_complex_matrix(data, "m")
    for bad in (np.nan, np.inf, 10**400):
        with pytest.raises(InvariantViolation, match="^matrix contains non-finite entries$"):
            as_complex_matrix([[1.0, bad], [0.0, 1.0]])


def test_as_complex_matrix_copies_its_input():
    data = np.eye(2)
    arr = as_complex_matrix(data)
    arr[0, 0] = 5.0
    assert data[0, 0] == 1.0 and arr.dtype == complex


def test_reprs_name_the_type_and_dimension():
    assert repr(StateVector([0.0, 1.0, 0.0])) == "StateVector(dim=3)"
    assert repr(Projector(np.diag([1.0, 0.0]))) == "Projector(dim=2)"


@pytest.mark.parametrize(
    "make, message",
    [(HermitianOperator, "^HermitianOperator must be square"), (UnitaryOperator, "^unitary must be square")],
    ids=["hermitian", "unitary"],
)
def test_operators_reject_a_non_square_matrix(make, message):
    with pytest.raises(DimensionMismatch, match=message):
        make(np.zeros((2, 3)))


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


def test_a_projector_is_an_effect_checked_without_an_eigensolver(monkeypatch):
    calls = []
    eigvalsh, effect_init = np.linalg.eigvalsh, Effect.__init__
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append("eigvalsh") or eigvalsh(*a, **k))
    monkeypatch.setattr(Effect, "__init__", lambda self, m: calls.append("Effect") or effect_init(self, m))
    p = Projector(np.diag([0.0, 1.0]))
    psi = StateVector([0.6, 0.8])
    assert isinstance(p, Effect) and issubclass(Projector, Effect)
    assert gpm_evaluate(psi, p) == event_probability(psi, p) == pytest.approx(0.64, abs=1e-15)
    assert GPMSample(p, 0.64).effect is p
    assert calls == []
    Effect(p.matrix)  # the counters see what an effect check does
    assert calls == ["Effect", "eigvalsh"]


def test_idempotence_bounds_a_projector_spectrum_within_the_effect_tolerance():
    # |l^2 - l| <= ||P@P - P||_F <= PROJECTOR_IDEM_TOL puts l in [-tol, 1 + tol] for tol = PROJECTOR_IDEM_TOL
    assert tol.PROJECTOR_IDEM_TOL <= tol.EFFECT_EIG_TOL
    rng = rng_for(23)
    for _ in range(50):
        r = int(rng.integers(2, 9))
        p = projector_onto_span([random_state(r, rng) for _ in range(int(rng.integers(1, r + 1)))])
        w = np.linalg.eigvalsh(p.matrix)
        assert w[0] >= -tol.EFFECT_EIG_TOL and w[-1] <= 1.0 + tol.EFFECT_EIG_TOL


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


@pytest.mark.parametrize(
    "vectors, error, message",
    [
        ([], DegenerateSpan, "^cannot project onto the span of an empty list$"),
        (np.empty((0, 2)), DegenerateSpan, "^cannot project onto the span of an empty list$"),
        (list(np.eye(2)) + [np.ones(2)], DegenerateSpan, "^3 vectors cannot be independent in dimension 2$"),
        (np.eye(3)[:, :2], DegenerateSpan, "^3 vectors cannot be independent in dimension 2$"),
        ([np.eye(3)[0], np.eye(2)[1]], DimensionMismatch, "^eigenvectors have inconsistent dimensions$"),
        ([StateVector([1.0, 0.0]), [0.0, 0.0, 1.0]], DimensionMismatch, "^eigenvectors have inconsistent dimensions$"),
        (np.array([1.0, 0.0]), DimensionMismatch, r"^a group is a list of vectors or a k x r array, got an array of shape \(2,\)$"),
        (np.ones((1, 2, 2)), DimensionMismatch, r"^a group is a list of vectors or a k x r array, got an array of shape \(1, 2, 2\)$"),
    ],
    ids=["empty", "empty_array", "too_many", "too_many_rows", "ragged", "ragged_states", "one_vector_array", "stack"],
)
def test_projector_onto_span_rejects_a_malformed_vector_list(vectors, error, message):
    with pytest.raises(error, match=message):
        projector_onto_span(vectors)


def test_a_row_array_spans_what_its_rows_span():
    rng = rng_for(24)
    for r in (2, 3, 5, 8):
        for k in range(1, r + 1):
            rows = np.array([random_state(r, rng).amplitudes for _ in range(k)])
            as_array, as_list = projector_onto_span(rows), projector_onto_span(list(rows))
            assert np.array_equal(as_array.matrix, as_list.matrix) and as_array.rank == as_list.rank == k
            assert np.array_equal(projector_onto_span(rows.real).matrix, projector_onto_span(list(rows.real)).matrix)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projector_onto_span_rejects_non_finite_vectors(bad):
    for vectors in ([[bad, 0.0], [0.0, 1.0]], [np.array([1.0, 1j * bad])]):
        with pytest.raises(InvariantViolation, match="non-finite"):
            projector_onto_span(vectors)


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

