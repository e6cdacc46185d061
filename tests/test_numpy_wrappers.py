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

The Born chain, collapse, value keys and the images of f(v) run on Python
floats where numpy scalars stood: each is checked against the numpy-scalar
expression it replaced, by ``uint64`` view. A matrix times a vector in the
Born rule and the chain is ``ndarray.dot``, checked against ``@`` the same way.

A report number is formatted once with ``#.12g`` where it was formatted twice,
and the ``basis_angle_degrees`` shorthand computes with ``math`` where it called
numpy's scalar ``deg2rad``, ``cos`` and ``sin``: each is checked against the
code it replaced.
"""

import dataclasses
import math
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
from qdecision import engine, report, variables
from qdecision import tolerances as tol
from qdecision.linalg import _norm, _span_projection

from conftest import random_density, random_hermitian, random_maximal_variable, random_unitary

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
        assert _norm(x) == want and type(_norm(x)) is float  # a Python float: its callers compare and print it
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


# ---------------------------------------------------------------------------
# the Born chain, collapse, value keys and f(v) images on Python floats


def frozen_chain(state, projectors):
    """``engine._chain`` while it returned numpy scalars: ``_norm``'s np.sqrt and np.float64 ** 2, and ``np.trace``."""
    if isinstance(state, StateVector):
        phi = state.amplitudes
        for p in projectors:
            phi = p.matrix @ phi
        return phi, float(_norm(phi) ** 2)
    rho = state.matrix
    for p in projectors:
        rho = p.matrix @ rho @ p.matrix
    return rho, float(np.trace(rho).real)


def frozen_round_value(x) -> float:
    """``variables.round_value`` while it built its nested format spec on every call."""
    return float(f"{float(x):.{tol.VALUE_SIG_DIGITS}g}")


def _random_variable(rng, d: int, aligned: bool):
    """A variable of d values in 1 to d groups, on the standard basis or a random one."""
    u = np.eye(d, dtype=complex) if aligned else random_unitary(d, rng)
    cuts = np.sort(rng.choice(np.arange(1, d), size=int(rng.integers(0, d)), replace=False))
    groups = np.split(u.T, cuts)
    return variable_from_spectrum("v", list(range(len(groups))), groups)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(d=st.integers(2, 32), length=st.integers(1, 6), aligned=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_the_chain_and_collapse_are_the_numpy_scalar_ones_bit_for_bit(d, length, aligned, seed):
    """Aligned variables and a basis state give exact zeros, so null chains and zeros of both signs come up too."""
    rng = np.random.default_rng(seed)
    pair = [_random_variable(rng, d, aligned).eigenprojectors for _ in range(2)]
    chain = [pair[k % 2][int(rng.integers(len(pair[k % 2])))] for k in range(length)]
    states = [StateVector(np.eye(d)[int(rng.integers(d))]), StateVector(random_unitary(d, rng)[:, 0]),
              DensityOperator(random_density(d, rng))]
    for state in states:
        got, want = engine._chain(state, chain), frozen_chain(state, chain)
        assert np.array_equal(bits(got[0]), bits(want[0])) and bits(got[1]) == bits(want[1]), (d, length, aligned, seed)
        assert type(got[1]) is float
        if isinstance(state, StateVector) and want[1] > tol.ZERO_PROB_TOL:
            post, p = frozen_chain(state, chain[:1])
            collapsed = engine.collapse_onto(state, chain[0]).amplitudes
            assert np.array_equal(bits(collapsed), bits(post / np.sqrt(p))), (d, aligned, seed)


def test_the_chain_probability_is_the_numpy_scalar_one_on_many_states():
    """About one squared norm in a thousand rounds differently as s * s than as s ** 2, so many states are needed
    to tell the two apart; the hypothesis test above sees too few."""
    rng = np.random.default_rng(5750)
    chain = random_maximal_variable(2, rng).eigenprojectors[:1]
    amplitudes = rng.normal(size=(20_000, 2)) + 1j * rng.normal(size=(20_000, 2))
    for a in amplitudes / np.linalg.norm(amplitudes, axis=1, keepdims=True):
        state = StateVector._trusted(a)
        assert bits(engine._chain(state, chain)[1]) == bits(frozen_chain(state, chain)[1]), a


_ROUNDED = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, -1e-310, 1e308, -1e308, 1.7976931348623157e308,
            math.inf, -math.inf, math.nan, 0.1, 1 / 3, -2.5, 0, 1, -7, 10**20, True, np.float64(0.1), np.int64(-3)]


@pytest.mark.parametrize("x", _ROUNDED, ids=repr)
def test_round_value_is_the_nested_spec_bit_for_bit(x):
    assert bits(variables.round_value(x)) == bits(frozen_round_value(x))


@pytest.mark.parametrize("m", [2, 3, 7, 32])
def test_the_spectral_sum_of_a_list_is_that_of_the_array(m):
    """The images ``expectation_of_function`` passes as a list, against the array it passed before: the finite
    sums bit for bit, and None alike for nan, inf and 1e308 over many projectors."""
    projectors = random_maximal_variable(m, np.random.default_rng(5900 + m)).eigenprojectors
    finite = [list(np.random.default_rng(6000 + m).normal(size=m)), [0.0, -0.0] * (m // 2) + [-0.0] * (m % 2),
              [4e307, -4e307] + [0.0] * (m - 2), [1e300 / m] * m]
    infinite = [[1e308] * m, [math.nan] + [1.0] * (m - 1), [1.0] * (m - 1) + [-math.inf], [math.inf] * m]
    for images, overflows in [(x, False) for x in finite] + [(x, True) for x in infinite]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = variables._spectral_sum(images, projectors), variables._spectral_sum(np.array(images), projectors)
        if overflows:
            assert got is None and want is None, images
        else:
            assert np.array_equal(bits(got), bits(want)), images


def test_python_sqrt_and_pow_are_numpys_on_this_host():
    """``_chain`` returns ``math.sqrt(s) ** 2`` where it returned ``np.sqrt(np.float64(s)) ** 2``: the same IEEE
    square root, and libm ``pow`` on both sides. If a libm or numpy release parts them, reports may change."""
    rng = np.random.default_rng(6100)
    samples = np.concatenate([rng.random(50_000), rng.random(10_000) * 10.0 ** rng.integers(-300, 300, 10_000)])
    parted = [s for s in samples.tolist() if bits(math.sqrt(s) ** 2) != bits(float(np.sqrt(np.float64(s)) ** 2))]
    assert not parted, f"math.sqrt(s) ** 2 and np.sqrt(np.float64(s)) ** 2 differ on {len(parted)} values, first {parted[0]!r}"


@pytest.mark.parametrize("d", [2, 3, 8, 16, 17, 32])
def test_matrix_times_vector_by_dot_is_matmul_bit_for_bit(d):
    """``_born``, ``_event`` and the vector chain multiply by ``ndarray.dot``: the zgemv call ``@`` makes, without the
    ufunc machinery around it. A numpy or BLAS release that parts the two fails here."""
    rng = np.random.default_rng(6200 + d)
    for _ in range(200):
        m = engine._frozen(random_maximal_variable(d, rng).eigenprojectors[0].matrix.copy())
        for a in (random_unitary(d, rng)[:, 0], np.eye(d, dtype=complex)[int(rng.integers(d))]):
            a = engine._frozen(a.copy())
            assert np.array_equal(bits(m.dot(a)), bits(m @ a)), d
            assert np.array_equal(bits(m.dot(m.dot(a))), bits(m @ (m @ a))), d


# ---------------------------------------------------------------------------
# report numbers formatted once, and the angle shorthand on math


def two_format_number(x) -> str:
    """``report.format_number`` while it formatted every number twice: ``.11e`` for the exponent after rounding to
    12 digits, then ``f`` at the place that exponent gives."""
    x = float(x)
    if x == 0.0:
        return "0." + "0" * tol.FLOAT_SIG_DIGITS
    mantissa, exponent = f"{x:.{tol.FLOAT_SIG_DIGITS - 1}e}".split("e")
    e = int(exponent)
    if e >= tol.FLOAT_SIG_DIGITS:
        return mantissa.replace(".", "") + "0" * (e - tol.FLOAT_SIG_DIGITS + 1)
    return f"{x:#.{tol.FLOAT_SIG_DIGITS - 1 - e}f}"


# where the rounded exponent crosses -4 or 12, the two ends of the one-format path, and its neighbours
_FORMAT_EDGES = [9.9999999999995e-05, 1e-4, 999999999999.5, 1e12, 9.99999999999949e-05, 999999999999.4999,
                 99999.9999999995, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, 0.1, 1 / 3, -2.5, 1e-5, -1e-4, -999999999999.5, 123456789012.34, 0.5,
                 1, -7, 10**20, True, np.float64(0.1), np.int64(-3)]
_FORMAT_EDGES += [math.nextafter(x, t) for x in _FORMAT_EDGES[:7] for t in (-math.inf, math.inf)]


@pytest.mark.parametrize("x", _FORMAT_EDGES, ids=repr)
def test_format_number_is_the_two_format_one_at_its_edges(x):
    assert report.format_number(x) == two_format_number(x)


@hypothesis.settings(max_examples=1000, deadline=None)
@hypothesis.given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_format_number_is_the_two_format_one(x):
    assert report.format_number(x) == two_format_number(x)


def test_format_number_is_the_two_format_one_on_many_doubles():
    """Random bit patterns, which reach every exponent, and random values near each power of ten in 1e-6 to 1e14."""
    rng = np.random.default_rng(6300)
    patterns = rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64)
    near = (1.0 + rng.normal(scale=1e-11, size=50_000)) * 10.0 ** rng.integers(-6, 15, 50_000)
    values = [x for x in np.concatenate([patterns, near, -near]).tolist() if math.isfinite(x)]
    parted = [x for x in values if report.format_number(x) != two_format_number(x)]
    assert not parted, f"{len(parted)} of {len(values)} numbers format differently, first {parted[0]!r}"


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan], ids=repr)
def test_format_number_of_a_non_finite_number_still_raises(x):
    """No report holds one: the parent raised ``ValueError`` unpacking the exponent of 'inf', and still does."""
    for fmt in (report.format_number, two_format_number):
        with pytest.raises(ValueError, match="not enough values to unpack"):
            fmt(x)


def test_math_angles_are_numpys_scalar_ones_on_a_grid():
    """``math.radians``, ``cos`` and ``sin`` against ``np.deg2rad`` of the same Python float and numpy's scalar
    ``cos`` and ``sin`` of that, by ``uint64`` view: every 0.01 degree in [-720, 720), random angles of every size
    and the two that are not finite, as the shorthand sets them to nan. A libm or numpy release that parts them
    fails here."""
    rng = np.random.default_rng(6400)
    degrees = (np.arange(-72_000, 72_000) / 100).tolist()
    degrees += (rng.random(5_000) * 10.0 ** rng.integers(-300, 300, 5_000) * rng.choice([-1.0, 1.0], 5_000)).tolist()
    degrees += [1e300, -1.7976931348623157e308, 5e-324, -0.0, math.nan]
    parted = []
    for x in degrees:
        a, t = math.radians(x), np.deg2rad(x)
        if bits([a, math.cos(a), math.sin(a)]).tolist() != bits([t, np.cos(t), np.sin(t)]).tolist():
            parted.append(x)
    assert not parted, f"math and numpy part on {len(parted)} angles, first {parted[0]!r}"

