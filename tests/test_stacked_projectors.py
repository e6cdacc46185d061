"""Eigenprojectors built in one stacked QR per group size are the per-group projectors, bit for bit.

``variable_from_spectrum`` projects the groups of each size in one batched
QR, a size of its own in a batch of one. Each projector must equal
``projector_onto_span`` of its group exactly, at every dimension a document
may use up to 16, and be a read-only view of its batch.
"""

import numpy as np
import pytest

from qdecision import DegenerateSpan, DimensionMismatch, StateVector, projector_onto_span, variable_from_spectrum

from conftest import distinct_values, random_unitary


def _size_patterns(r: int, rng: np.random.Generator) -> list[list[int]]:
    """All ones (one batch of every group), all twos and one rest, distinct sizes, and random cuts."""
    patterns = [[1] * r, [2] * (r // 2) + [1] * (r % 2)]
    distinct, left = [], r
    for k in range(1, r + 1):
        if k > left:
            break
        distinct.append(k)
        left -= k
    distinct[-1] += left
    patterns.append(distinct)
    for _ in range(6):
        cuts = sorted(rng.choice(np.arange(1, r), size=int(rng.integers(1, r)), replace=False))
        patterns.append([int(k) for k in np.diff([0, *cuts, r])])
    return patterns


def _groups(r: int, sizes: list[int], rng: np.random.Generator) -> list[np.ndarray]:
    """Columns of a random unitary, cut into groups of ``sizes``, each as a k x r array of rows."""
    u = random_unitary(r, rng)
    bounds = np.cumsum([0, *sizes])
    return [u[:, a:b].T.copy() for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("r", range(2, 17))
def test_projectors_equal_the_per_group_projector_onto_span(r):
    rng = np.random.default_rng(4100 + r)
    for sizes in _size_patterns(r, rng):
        groups = _groups(r, sizes, rng)
        values = distinct_values(len(groups), rng)[::-1]
        v = variable_from_spectrum("v", values, groups)
        order = sorted(range(len(values)), key=lambda j: values[j])
        for p, j in zip(v.eigenprojectors, order):
            public = projector_onto_span(list(groups[j]))
            assert np.array_equal(p.matrix, public.matrix), (r, sizes, j)
            assert p.rank == public.rank == sizes[j]
            assert not p.matrix.flags.writeable
            with pytest.raises(ValueError):  # a view of the read-only batch
                p.matrix.setflags(write=True)


@pytest.mark.parametrize("r", [2, 5, 9, 16])
def test_group_arrays_give_the_variable_of_their_rows(r):
    rng = np.random.default_rng(4200 + r)
    for sizes in _size_patterns(r, rng)[:4]:
        groups = _groups(r, sizes, rng)
        values = distinct_values(len(groups), rng)
        from_arrays = variable_from_spectrum("v", values, groups)
        from_vectors = variable_from_spectrum("v", values, [list(g) for g in groups])
        from_states = variable_from_spectrum("v", values, [[StateVector(row) for row in g] for g in groups])
        for other in (from_vectors, from_states):
            assert other.values == from_arrays.values
            assert np.array_equal(other.operator.matrix, from_arrays.operator.matrix)
            for p, q in zip(other.eigenprojectors, from_arrays.eigenprojectors):
                assert np.array_equal(p.matrix, q.matrix) and p.rank == q.rank


def test_vectors_of_different_lengths_in_one_group_are_a_dimension_mismatch():
    e = np.eye(3, dtype=complex)
    for groups in ([[e[0], e[1][:2]], [e[2]]], [[e[0]], [e[1], e[2][:2]]]):
        with pytest.raises(DimensionMismatch, match="^eigenvectors have inconsistent dimensions$"):
            variable_from_spectrum("v", [0.0, 1.0], groups)
    with pytest.raises(DimensionMismatch, match="^eigenvectors have inconsistent dimensions$"):
        variable_from_spectrum("v", [0.0, 1.0], [e[:2], e[2:, :2]])


def test_an_empty_group_is_a_degenerate_span():
    e = np.eye(2, dtype=complex)
    for empty in ([], np.empty((0, 2), dtype=complex)):
        with pytest.raises(DegenerateSpan, match="^cannot project onto the span of an empty list$"):
            variable_from_spectrum("v", [0.0, 1.0, 2.0], [[e[0]], empty, [e[1]]])
    with pytest.raises(DimensionMismatch, match="^eigenbasis is empty$"):
        variable_from_spectrum("v", [0.0, 1.0], [[], np.empty((0, 2))])
