"""The small-matrix path calls numpy.linalg's gufuncs and arithmetic without its wrappers, and keeps their bits.

``linalg._span_projection`` runs the Householder QR on the two private gufuncs
that ``np.linalg.qr`` calls, ``linalg._norm`` is ``np.linalg.norm``'s own
arithmetic, and ``variables._spectral_sum`` skips its overflow guard when no
value can overflow. The tomography round trip calls ``np.vdot``'s C function
without its dispatch and ``np.linalg.eigh``'s gufunc without its wrapper, and
writes its minimizer through the matrix's float view. Each must give exactly
what the wrapped or guarded path gives, compared by ``uint64`` view where a
zero's sign could differ. A numpy release that renames or retypes the gufuncs
fails here by name.
"""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from qdecision import (
    DensityOperator,
    Effect,
    GPMSample,
    InvariantViolation,
    NoConvergence,
    StateVector,
    expectation_of_function,
    gpm_evaluate,
    ic_effect_basis,
    reconstruct_density,
    variable_from_spectrum,
)
from qdecision import engine, variables
from qdecision.linalg import _norm, _span_projection

from conftest import random_density, random_hermitian, random_unitary

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


# ---------------------------------------------------------------------------
# the tomography round trip: vdot, eigh and the coordinate writer


def bits(x) -> np.ndarray:
    return np.asarray(x).reshape(-1).view(np.uint64)


def test_the_eigh_gufunc_takes_complex_matrices():
    assert "D->dD" in _umath_linalg.eigh_lo.types


@pytest.mark.parametrize("r", range(2, 33))
def test_engine_vdot_is_numpys_vdot(r):
    rng = np.random.default_rng(5600 + r)
    a = rng.normal(size=r) + 1j * rng.normal(size=r)
    m, n = random_hermitian(r, rng), random_density(r, rng)
    for x, y in ((a, m @ a), (n, m), (m, n), (a.real, a)):
        assert np.array_equal(bits(engine._vdot(x, y)), bits(np.vdot(x, y))), r


@pytest.mark.parametrize("r", range(2, 33))
def test_the_eigh_gufunc_is_numpys_eigh(r):
    rng = np.random.default_rng(5700 + r)
    for a in (random_hermitian(r, rng), random_density(r, rng), np.eye(r, dtype=complex)):
        w, v = _umath_linalg.eigh_lo(a, signature="D->dD")
        want_w, want_v = np.linalg.eigh(a)
        assert np.array_equal(bits(w), bits(want_w)) and np.array_equal(bits(v), bits(want_v)), r


def frozen_from_coords(x: np.ndarray, r: int) -> np.ndarray:
    """``engine._hermitian_from_coords`` before it wrote through the float view."""
    out = np.diag(x[:r].astype(complex))
    i, j = np.triu_indices(r, 1)
    out[i, j] = x[r::2] + 1j * x[r + 1::2]
    out[j, i] = x[r::2] - 1j * x[r + 1::2]
    return out


def frozen_ic_fit(mu: np.ndarray, r: int) -> tuple[np.ndarray, float]:
    """``engine._ic_fit`` before it wrote through the float view and took D x from mid + d."""
    diag = mu[:r] + (1.0 - mu[:r].sum()) / r
    j, k = np.triu_indices(r, 1)
    mid, sign = (diag[j] + diag[k])[:, None] / 2.0, np.array([1.0, -1.0])
    x = np.concatenate([diag, ((mu[r:].reshape(-1, 2) - mid) * sign).ravel()])
    fitted = np.concatenate([diag, (mid + x[r:].reshape(-1, 2) * sign).ravel()])
    return frozen_from_coords(x, r), float(np.linalg.norm(fitted - mu))


# zeros of both signs and values whose differences vanish, so that some coordinates are exactly zero
_SPECIAL = st.sampled_from([0.0, -0.0, 0.5, 0.25, 1.0, -1e-12, 1e-300, -1e-300])


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(data=st.data(), r=st.integers(2, 9))
def test_the_coordinate_writer_is_the_old_one_bit_for_bit(data, r):
    element = st.one_of(_SPECIAL, st.floats(-1e3, 1e3))
    x = data.draw(hnp.arrays(float, r * r, elements=element))
    assert np.array_equal(bits(engine._hermitian_from_coords(x, r)), bits(frozen_from_coords(x, r)))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(data=st.data(), r=st.integers(2, 9))
def test_the_ic_fit_is_the_old_one_bit_for_bit(data, r):
    element = st.one_of(_SPECIAL, st.sampled_from([1.0 / r, 0.5 / r]), st.floats(0.0, 1.0))
    mu = data.draw(hnp.arrays(float, r * r, elements=element))
    raw, residual = engine._ic_fit(mu, r)
    want_raw, want_residual = frozen_ic_fit(mu, r)
    assert np.array_equal(bits(raw), bits(want_raw)) and bits(residual) == bits(want_residual)


@pytest.mark.parametrize("r", range(2, 9))
def test_a_uniform_sample_has_exact_zero_coordinates_and_keeps_their_signs(r):
    """mu = 1/r on every effect makes the Re and Im coordinates exact zeros (all of them when 1/r sums to 1 exactly),
    and an imaginary part that is zero is +0 on both sides of the diagonal, where a write of -im gives -0 below."""
    mu = np.full(r * r, 1.0 / r)
    raw, residual = engine._ic_fit(mu, r)
    want_raw, want_residual = frozen_ic_fit(mu, r)
    assert np.array_equal(bits(raw), bits(want_raw)) and bits(residual) == bits(want_residual)
    assert not np.signbit(raw.imag[raw.imag == 0.0]).any()
    if r in (2, 4, 8):
        assert not raw.imag.any()


def test_a_nan_eigenvalue_raises_no_convergence(monkeypatch):
    """The gufunc reports a LAPACK failure as nan eigenvalues, not as an exception."""
    samples = [GPMSample(f, gpm_evaluate(DensityOperator(np.eye(3) / 3), f)) for f in ic_effect_basis(3)]
    assert reconstruct_density(samples).min_eigenvalue > 0.0

    def no_convergence(a, signature):
        return np.full(a.shape[-1], np.nan), np.full(a.shape, np.nan, dtype=complex)

    monkeypatch.setattr(engine._umath_linalg, "eigh_lo", no_convergence)
    with pytest.raises(NoConvergence, match="^eigensolver did not converge"):
        reconstruct_density(samples)


# ---------------------------------------------------------------------------
# the sample's own constructor


def test_a_sample_stays_a_frozen_slotted_dataclass():
    effect = ic_effect_basis(2)[0]
    s = GPMSample(effect, 0.25)
    assert GPMSample.__slots__ == ("effect", "probability") and not hasattr(s, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.probability = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.effect = ic_effect_basis(2)[1]
    assert s == GPMSample(effect, 0.25) and s != GPMSample(effect, 0.5)
    assert GPMSample(probability=0.25, effect=effect) == s
    assert repr(s) == f"GPMSample(effect={effect!r}, probability=0.25)"
    assert dataclasses.replace(s, probability=0.5) == GPMSample(effect, 0.5)


@pytest.mark.parametrize("p", [np.nan, -0.01, 1.01, np.inf, -np.inf])
def test_a_sample_rejects_a_probability_outside_the_unit_interval(p):
    with pytest.raises(InvariantViolation, match="outside \\[0, 1\\]$"):
        GPMSample(ic_effect_basis(2)[0], p)


def test_a_sample_checks_its_probability_before_its_effect():
    with pytest.raises(InvariantViolation, match="^sample probability nan outside"):
        GPMSample(np.diag([2.0, 0.0]), np.nan)


def test_a_sample_coerces_a_raw_matrix_to_an_effect():
    s = GPMSample(np.diag([1.0, 0.0]), 1.0)
    assert type(s.effect) is Effect and np.array_equal(s.effect.matrix, np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(InvariantViolation, match="not within \\[0, 1\\]"):
        GPMSample(np.diag([2.0, 0.0]), 0.5)
