"""The small-matrix path calls numpy.linalg's gufuncs and arithmetic without its wrappers, and keeps their bits.

``linalg._span_projection`` runs the Householder QR on the two private gufuncs
that ``np.linalg.qr`` calls, ``linalg._norm`` is ``np.linalg.norm``'s own
arithmetic, and ``variables._spectral_sum`` skips its overflow guard when no
value can overflow. Each must give exactly what the wrapped or guarded path
gives. A numpy release that renames or retypes the gufuncs fails here by name.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from qdecision import InvariantViolation, StateVector, expectation_of_function, variable_from_spectrum
from qdecision import variables
from qdecision.linalg import _norm, _span_projection

from conftest import random_unitary

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
hnp = pytest.importorskip("hypothesis.extra.numpy")


def wrapped_projection(cols):
    """``_span_projection`` as it reads through ``np.linalg.qr``."""
    q, _ = np.linalg.qr(cols)
    p = q @ q.conj().swapaxes(-1, -2)
    return (p + p.conj().swapaxes(-1, -2)) / 2.0


# ---------------------------------------------------------------------------
# the QR gufuncs


def test_the_qr_gufuncs_take_complex_matrices():
    assert "D->D" in _umath_linalg.qr_r_raw.types
    assert "DD->D" in _umath_linalg.qr_reduced.types


@pytest.mark.parametrize("r", range(2, 33))
def test_span_projection_is_the_wrapped_qr_projection(r):
    """Stacks n x r x k of every k, real and complex, as columns and as the transposed rows ``variable_from_spectrum``
    passes. The QR runs in complex arithmetic, as every caller's columns are complex, so a real stack is compared
    through its complex copy: ``np.linalg.qr`` would factor the real array with LAPACK's real routine."""
    rng = np.random.default_rng(5300 + r)
    for k in range(1, r + 1):
        n = int(rng.integers(1, 4))
        real = rng.normal(size=(n, r, k))
        stacks = [real, real + 1j * rng.normal(size=(n, r, k)), (rng.normal(size=(n, k, r)) + 0j).swapaxes(-1, -2)]
        for cols in stacks:
            assert np.array_equal(_span_projection(cols), wrapped_projection(cols.astype(complex))), (r, k, cols.dtype)


def test_span_projection_leaves_its_columns_alone():
    cols = random_unitary(6, np.random.default_rng(5400))[:, :3]
    before = cols.copy()
    _span_projection(cols)
    assert np.array_equal(cols, before)


# ---------------------------------------------------------------------------
# the norm


def _float_arrays(dtype):
    elements = st.floats(allow_nan=False, allow_infinity=False, width=64)
    if dtype == complex:
        elements = st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e300)
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=9), elements=elements)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(data=st.data(), dtype=st.sampled_from([float, complex]), transpose=st.booleans())
def test_norm_is_numpys_norm(data, dtype, transpose):
    x = data.draw(_float_arrays(dtype))
    if transpose:
        x = x.T  # entries in memory order, not index order
    with np.errstate(over="ignore"):
        want = np.linalg.norm(x)
        assert _norm(x) == want
        if x.ndim == 2:
            assert _norm(x) == np.linalg.norm(x, "fro") == want


def test_norm_of_empty_arrays_is_zero():
    for x in (np.empty(0), np.empty((0, 3), dtype=complex), np.empty((2, 0))):
        assert _norm(x) == np.linalg.norm(x) == 0.0


# ---------------------------------------------------------------------------
# the spectral sum's overflow bound


def _basis_variable(values):
    eye = np.eye(len(values), dtype=complex)
    return variable_from_spectrum("v", values, [[row] for row in eye])


def _reference_sum(values, projectors):
    op = sum(u * p.matrix for u, p in zip(values, projectors))
    return (op + op.conj().T) / 2.0


@pytest.mark.parametrize("m", [2, 3, 7])
def test_values_on_both_sides_of_the_bound_give_the_same_bits(m):
    """Just below 1e300 / m the sum runs unguarded, from there up guarded; each result is the plain sum's."""
    projectors = variable_from_spectrum(
        "v", list(range(m)), [[row] for row in random_unitary(m, np.random.default_rng(5500 + m))]
    ).eigenprojectors
    bound = 1e300 / m
    for top, guarded in ((np.nextafter(bound, 0.0), False), (bound, True), (np.nextafter(bound, np.inf), True)):
        values = np.linspace(-top, top, m)
        with mock.patch.object(variables.np, "errstate", wraps=np.errstate) as errstate:
            got = variables._spectral_sum(values, projectors)
        assert errstate.called == guarded, top
        assert np.array_equal(got, _reference_sum(values, projectors)), top


def test_finite_values_beyond_the_bound_still_give_a_variable():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = _basis_variable([-4e307, 4e307])
        assert np.array_equal(v.operator.matrix, np.diag([-4e307, 4e307]).astype(complex))
        psi = StateVector([1.0, 0.0])
        assert expectation_of_function(psi, v, {-4e307: 4e307, 4e307: -4e307}) == 4e307


def test_an_operator_that_overflows_is_rejected_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="finite operator"):
            _basis_variable([0.0, 1e308])
        v = _basis_variable([0.0, 1.0])
        with pytest.raises(InvariantViolation, match="finite operator"):
            expectation_of_function(StateVector([1.0, 0.0]), v, lambda u: 1e308)
