"""Decision variables: construction, maximality, functions, conjugation."""

import math

import numpy as np
import pytest

from qdecision import (
    DecisionVariable,
    DimensionMismatch,
    DuplicateValues,
    EngineError,
    InvariantViolation,
    NonOrthonormalBasis,
    NotUnitary,
    Projector,
    StateVector,
    UnknownValue,
    apply_function,
    are_complementary,
    conjugate,
    is_maximal,
    is_one_to_one_related,
    projector_onto_span,
    variable_from_spectrum,
)
from qdecision.variables import _spectral_sum

from conftest import distinct_values, random_maximal_variable, random_unitary, rng_for

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def pauli_x_variable(name="x"):
    plus = StateVector([INV_SQRT2, INV_SQRT2])
    minus = StateVector([INV_SQRT2, -INV_SQRT2])
    return variable_from_spectrum(name, [-1.0, 1.0], [[minus], [plus]])


def diag_variable(values, name="d"):
    eye = np.eye(len(values))
    return variable_from_spectrum(name, values, [[eye[:, j]] for j in range(len(values))])


# ---------------------------------------------------------------------------
# construction


def test_variable_from_standard_basis():
    v = diag_variable([1.0, 2.0])
    assert np.allclose(v.operator.matrix, np.diag([1.0, 2.0]), atol=1e-12)
    assert v.values == (1.0, 2.0)


def test_variable_pauli_x_by_hand():
    v = pauli_x_variable()
    assert np.allclose(v.operator.matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_variable_with_degenerate_eigenspace():
    eye = np.eye(3)
    v = variable_from_spectrum(
        "deg", [0.0, 1.0], [[eye[:, 0], eye[:, 1]], [eye[:, 2]]]
    )
    assert np.allclose(v.operator.matrix, np.diag([0.0, 0.0, 1.0]), atol=1e-12)
    assert [p.rank for p in v.eigenprojectors] == [2, 1]


def test_variable_sorts_values_with_their_spaces():
    eye = np.eye(2)
    v = variable_from_spectrum("s", [2.0, -1.0], [[eye[:, 0]], [eye[:, 1]]])
    assert v.values == (-1.0, 2.0)
    assert np.allclose(v.operator.matrix, np.diag([2.0, -1.0]), atol=1e-12)


def test_variable_rejects_duplicate_values():
    eye = np.eye(2)
    with pytest.raises(DuplicateValues):
        variable_from_spectrum("bad", [1.0, 1.0], [[eye[:, 0]], [eye[:, 1]]])


def test_variable_rejects_non_orthonormal_basis():
    with pytest.raises(NonOrthonormalBasis):
        variable_from_spectrum(
            "bad", [0.0, 1.0], [[np.array([1.0, 0.0])], [np.array([0.8, 0.6])]]
        )


@pytest.mark.parametrize(
    "values, basis",
    [
        ([0.0, 1.0], [[[np.nan, 0.0]], [[0.0, 1.0]]]),
        ([np.nan, 1.0], [[[1.0, 0.0]], [[0.0, 1.0]]]),
        ([0.0, np.inf], [[[1.0, 0.0]], [[0.0, 1.0]]]),
        # finite, but (A + A^dag) overflows
        ([1e308, 1.7e308], [[[1.0, 0.0]], [[0.0, 1.0]]]),
    ],
)
def test_variable_rejects_non_finite_input(values, basis):
    with pytest.raises(EngineError):
        variable_from_spectrum("nf", values, basis)


def test_variable_rejects_wrong_vector_count():
    with pytest.raises(DimensionMismatch):
        variable_from_spectrum("bad", [0.0], [[np.array([1.0, 0.0])]])


def test_a_group_given_as_one_vector_array_is_named():
    """Each group is a list of vectors or a k x r array; a 1-d array is one vector, not a group of one-entry vectors."""
    with pytest.raises(DimensionMismatch, match=r"^a group is a list of vectors or a k x r array, got an array of shape \(2,\)$"):
        variable_from_spectrum("v", [0.0, 1.0], [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    v = variable_from_spectrum("v", [0.0, 1.0], [np.array([[1.0, 0.0]]), [np.array([0.0, 1.0])]])
    assert [p.rank for p in v.eigenprojectors] == [1, 1]


def test_variable_rejects_more_values_than_groups():
    with pytest.raises(DimensionMismatch, match="^2 values but 1 eigenvector groups$"):
        variable_from_spectrum("bad", [0.0, 1.0], [np.eye(2)])


def test_direct_construction_requires_increasing_values():
    v = diag_variable([1.0, 2.0])
    with pytest.raises(DuplicateValues):
        DecisionVariable("bad", [2.0, 1.0], list(v.eigenprojectors))


def _slack_projectors():
    """Two rank-one projectors, each idempotent and summing to I within
    tolerance, whose product still exceeds the orthogonality tolerance."""
    delta, c, e = 0.95e-10, np.sqrt(1 / 8), np.sqrt(3 / 8)
    p = np.diag([1.0, 0.0]) + delta * np.array([[-e, c], [c, e]])
    q = np.diag([0.0, 1.0]) + delta * np.array([[e, c], [c, -e]])
    return [Projector(p), Projector(q)]


@pytest.mark.parametrize(
    "values, projectors, error, message",
    [
        ([0.0, 1.0], lambda e0, e1: [e0], DimensionMismatch, "2 values but 1 projectors"),
        ([1.0, 1.0], lambda e0, e1: [e0, e1], DuplicateValues, "repeated values"),
        ([0.0, 1.0], lambda e0, e1: [e0, Projector(np.eye(3))], DimensionMismatch, "dimensions disagree"),
        ([0.0], lambda e0, e1: [e0], DimensionMismatch, "ranks sum to 1, expected 2"),
        ([0.0, 1.0], lambda e0, e1: [e0, e0], NonOrthonormalBasis, "do not resolve the identity"),
        ([0.0, 1.0], lambda e0, e1: _slack_projectors(), NonOrthonormalBasis, "are not orthogonal"),
    ],
    ids=["count", "repeated", "dimensions", "rank_sum", "identity", "orthogonality"],
)
def test_direct_construction_rejects_inconsistent_spectral_data(values, projectors, error, message):
    e0, e1 = Projector(np.diag([1.0, 0.0])), Projector(np.diag([0.0, 1.0]))
    with pytest.raises(error, match=message):
        DecisionVariable("bad", values, projectors(e0, e1))


def test_unitary_operator_type():
    from qdecision import UnitaryOperator

    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    w = UnitaryOperator(h)
    assert w.dim == 2
    with pytest.raises(NotUnitary):
        UnitaryOperator(np.array([[1.0, 0.2], [0.0, 1.0]]))


def test_variable_round_trips_through_eigendecomposition():
    rng = rng_for(31)
    for r in (2, 4, 6):
        v = random_maximal_variable(r, rng)
        w, vecs = np.linalg.eigh(v.operator.matrix)
        assert np.allclose(w, v.values, atol=1e-9)
        for g, proj in enumerate(v.eigenprojectors):
            rebuilt = projector_onto_span([vecs[:, g]]).matrix
            assert np.linalg.norm(rebuilt - proj.matrix, "fro") <= 1e-9


def test_spectral_resolution_invariant():
    rng = rng_for(32)
    for r in (2, 3, 5):
        v = random_maximal_variable(r, rng)
        resolved = sum(u * p.matrix for u, p in zip(v.values, v.eigenprojectors))
        assert np.linalg.norm(v.operator.matrix - resolved, "fro") <= 1e-10


def test_variable_repr_names_its_values_and_dimension():
    assert repr(diag_variable([0, 2.5])) == "DecisionVariable('d', values=(0.0, 2.5), dim=2)"


def test_projector_for_unknown_value():
    v = diag_variable([1.0, 2.0])
    with pytest.raises(UnknownValue):
        v.projector_for(3.0)


# ---------------------------------------------------------------------------
# the operator, built on its first read where it cannot fail


def _spread_variables(m: int, top: float) -> list[DecisionVariable]:
    """A variable of m values spread over [-top, top] from its spectrum, and the same through the checked constructor."""
    u = random_unitary(m, rng_for(4100 + m))
    v = variable_from_spectrum("v", list(np.linspace(-top, top, m)), [[u[:, j]] for j in range(m)])
    return [v, DecisionVariable("w", v.values, v.eigenprojectors)]


@pytest.mark.parametrize("m", [2, 3, 7])
@pytest.mark.parametrize("side", ["below", "at", "above"])
def test_the_operator_is_the_eager_spectral_sum_on_both_sides_of_the_bound(m, side):
    """Below 1e300 / m the operator waits for its first read; from the bound up it is built and gated at once."""
    bound = 1e300 / m
    top = {"below": math.nextafter(bound, 0.0), "at": bound, "above": math.nextafter(bound, math.inf)}[side]
    for v in _spread_variables(m, top):
        assert v.dim == m and repr(v)  # neither reads the operator
        assert ("operator" in vars(v)) == (side != "below")
        assert np.array_equal(v.operator.matrix, _spectral_sum(v.values, v.eigenprojectors))
        assert v.operator is v.operator


@pytest.mark.parametrize("read_first", [False, True], ids=["before-first-read", "after-first-read"])
def test_the_operator_cannot_be_rebound_or_deleted(read_first):
    v = pauli_x_variable()
    if read_first:
        before = v.operator
    for rebind in (lambda: setattr(v, "operator", "x"), lambda: delattr(v, "operator")):
        with pytest.raises(AttributeError, match="^DecisionVariable.operator is immutable$"):
            rebind()
    assert ("operator" in vars(v)) == read_first  # a refused write builds nothing
    assert np.array_equal(v.operator.matrix, _spectral_sum(v.values, v.eigenprojectors))
    if read_first:
        assert v.operator is before


# ---------------------------------------------------------------------------
# maximality


def test_maximality_simple_and_degenerate():
    assert is_maximal(diag_variable([1.0, 2.0, 3.0]))
    eye = np.eye(3)
    degenerate = variable_from_spectrum(
        "deg", [1.0, 2.0], [[eye[:, 0], eye[:, 1]], [eye[:, 2]]]
    )
    assert not is_maximal(degenerate)


def test_non_invertible_function_breaks_maximality():
    v = diag_variable([-1.0, 0.0, 1.0])
    squared = apply_function(v, lambda u: u * u)
    assert is_maximal(v)
    assert not is_maximal(squared)


# ---------------------------------------------------------------------------
# functions of variables


def test_apply_identity_function():
    rng = rng_for(33)
    v = random_maximal_variable(4, rng)
    w = apply_function(v, lambda u: u)
    assert np.allclose(w.values, v.values, atol=1e-10)
    for p, q in zip(v.eigenprojectors, w.eigenprojectors):
        assert np.linalg.norm(p.matrix - q.matrix, "fro") <= 1e-10


def test_square_collapses_symmetric_values():
    v = pauli_x_variable()
    w = apply_function(v, lambda u: u * u)
    assert w.values == (1.0,)
    assert np.allclose(w.eigenprojectors[0].matrix, np.eye(2), atol=1e-10)


def test_mod_two_grouping():
    # oracle: group values by image and sum the matching projectors
    v = diag_variable([1.0, 2.0, 3.0])
    w = apply_function(v, lambda u: u % 2.0)
    assert w.values == (0.0, 1.0)
    assert [p.rank for p in w.eigenprojectors] == [1, 2]
    assert np.allclose(w.eigenprojectors[0].matrix, np.diag([0.0, 1.0, 0.0]), atol=1e-12)
    assert np.allclose(w.eigenprojectors[1].matrix, np.diag([1.0, 0.0, 1.0]), atol=1e-12)


@pytest.mark.parametrize("image", [math.inf, -math.inf, math.nan], ids=repr)
def test_apply_function_names_a_non_finite_image_and_its_value(image):
    v = variable_from_spectrum("v", [0.0, 1.0], [[[1.0, 0.0]], [[0.0, 1.0]]])
    with pytest.raises(InvariantViolation, match=f"^f\\('v'\\) must be finite, got f\\(1.0\\) = {image!r}$"):
        apply_function(v, lambda u: image if u == 1.0 else u)


def test_apply_function_is_coarsening():
    # every projector of f(v) contains the projectors it merged
    rng = rng_for(34)
    v = random_maximal_variable(5, rng)
    w = apply_function(v, lambda u: round(u))
    for q in w.eigenprojectors:
        absorbed = 0
        for p in v.eigenprojectors:
            product = q.matrix @ p.matrix
            if np.linalg.norm(product - p.matrix, "fro") <= 1e-9:
                absorbed += p.rank
        assert absorbed == q.rank


# ---------------------------------------------------------------------------
# unitary conjugation


def test_conjugate_by_identity():
    v = diag_variable([-1.0, 1.0])
    w = conjugate(v, np.eye(2))
    assert w.values == v.values
    for p, q in zip(v.eigenprojectors, w.eigenprojectors):
        assert np.linalg.norm(p.matrix - q.matrix, "fro") <= 1e-12


def test_conjugate_hadamard_gives_pauli_x():
    # oracle: explicit 2x2 multiplication W^-1 diag(-1,1) W
    v = diag_variable([-1.0, 1.0])
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) * INV_SQRT2
    w = conjugate(v, hadamard)
    expected = hadamard.conj().T @ np.diag([-1.0, 1.0]) @ hadamard
    assert np.allclose(expected, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-12)
    assert np.allclose(w.operator.matrix, expected, atol=1e-12)


def test_conjugate_preserves_spectrum():
    rng = rng_for(35)
    v = random_maximal_variable(6, rng)
    w = conjugate(v, random_unitary(6, rng))
    assert np.allclose(
        np.linalg.eigvalsh(w.operator.matrix),
        np.sort(v.values),
        atol=1e-10,
    )


def test_conjugate_rejects_non_unitary():
    v = diag_variable([0.0, 1.0])
    with pytest.raises(NotUnitary):
        conjugate(v, np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_conjugate_rejects_a_unitary_of_another_dimension():
    with pytest.raises(DimensionMismatch, match="^unitary dim 3 does not match variable dim 2$"):
        conjugate(diag_variable([0.0, 1.0]), np.eye(3))


def test_conjugate_preserves_maximality():
    rng = rng_for(36)
    eye = np.eye(3)
    deg = variable_from_spectrum("deg", [0.0, 1.0], [[eye[:, 0], eye[:, 1]], [eye[:, 2]]])
    for _ in range(100):
        w = random_unitary(3, rng)
        v = random_maximal_variable(3, rng)
        assert is_maximal(conjugate(v, w)) == is_maximal(v)
        assert is_maximal(conjugate(deg, w)) == is_maximal(deg)


# ---------------------------------------------------------------------------
# one-to-one relation and complementarity


def test_monotone_function_keeps_one_to_one():
    rng = rng_for(37)
    v = random_maximal_variable(4, rng)
    w = apply_function(v, lambda u: 2.0 * u + 1.0)
    assert is_one_to_one_related(v, w)


def test_complementary_pair_is_not_one_to_one():
    v = diag_variable([-1.0, 1.0])
    w = pauli_x_variable()
    assert not is_one_to_one_related(v, w)
    assert are_complementary(v, w)


def test_conjugate_by_identity_is_one_to_one():
    rng = rng_for(38)
    v = random_maximal_variable(3, rng)
    assert is_one_to_one_related(v, conjugate(v, np.eye(3)))


def test_variables_with_different_numbers_of_projectors_are_not_one_to_one():
    eye = np.eye(3)
    coarse = variable_from_spectrum("c", [0.0, 1.0], [[eye[0], eye[1]], [eye[2]]])
    assert not is_one_to_one_related(diag_variable([0.0, 1.0, 2.0]), coarse)


def test_one_to_one_requires_matching_dimensions():
    with pytest.raises(DimensionMismatch):
        is_one_to_one_related(diag_variable([0.0, 1.0]), diag_variable([0.0, 1.0, 2.0]))


def test_complementary_pair_has_no_common_eigenvector():
    # standard basis against the Fourier basis: every pairwise overlap is
    # exactly 1/r, strictly inside (delta, 1 - delta)
    rng = rng_for(39)
    delta = 1e-6
    for r in (2, 3, 5):
        basis_a = np.eye(r, dtype=complex)
        omega = np.exp(2j * np.pi / r)
        basis_b = np.array(
            [[omega ** (j * k) / np.sqrt(r) for k in range(r)] for j in range(r)]
        )
        va = variable_from_spectrum("a", distinct_values(r, rng), [[basis_a[:, j]] for j in range(r)])
        vb = variable_from_spectrum("b", distinct_values(r, rng), [[basis_b[:, j]] for j in range(r)])
        overlaps = np.abs(basis_a.conj().T @ basis_b) ** 2
        assert np.all((overlaps > delta) & (overlaps < 1.0 - delta))
        assert are_complementary(va, vb)
        for j in range(r):
            for k in range(r):
                p = va.eigenprojectors[j].matrix
                q = vb.eigenprojectors[k].matrix
                # a shared eigenvector would make the projectors commute there
                assert np.linalg.norm(p @ q - q @ p, "fro") > delta
