"""Dense complex linear algebra with validated quantum types.

Everything downstream computes on the types defined here: state vectors,
self-adjoint operators, projectors, density operators and effects. The
public constructors enforce every invariant (hard errors, not warnings) and
all values are immutable afterwards, so they can be shared freely. Values
the engine builds itself, exact by construction from already validated
inputs, go through the one private ``_Immutable._trusted`` instead.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from . import tolerances as tol
from .errors import (
    DegenerateSpan,
    DimensionMismatch,
    InvalidEffect,
    InvariantViolation,
    NoConvergence,
    NotHermitian,
)

__all__ = [
    "StateVector",
    "HermitianOperator",
    "Projector",
    "DensityOperator",
    "Effect",
    "SpectralDecomposition",
    "as_complex_matrix",
    "hermitian_eig",
    "projector_onto_span",
]

# numpy's private entry points, named in this module only; _span_projection calls the two gufuncs np.linalg.qr calls
_vdot = np.vdot._implementation  # np.vdot's C function, without its array-function dispatch
_eigh_lo = _umath_linalg.eigh_lo  # np.linalg.eigh's gufunc: nan eigenvalues where LAPACK does not converge


def _real(x) -> float:
    """``float(x)``, or nan for an int beyond the float range, so that the finite gate after the read rejects it."""
    try:
        return float(x)
    except OverflowError:
        return np.nan


def _array(data, dtype=complex) -> np.ndarray:
    """A new ``dtype`` array of ``data``, all nan when an entry is an int beyond the float range; nested lists of
    unequal lengths raise ``DimensionMismatch``."""
    try:
        return np.array(data, dtype=dtype)
    except OverflowError:
        return np.full(np.shape(data), np.nan, dtype)
    except ValueError as exc:
        if "inhomogeneous" not in str(exc):  # numpy's word for ragged nesting; a malformed string stays a ValueError
            raise
        raise DimensionMismatch("nested lists of unequal lengths do not form an array") from None


def as_complex_matrix(data, name: str = "matrix") -> np.ndarray:
    """Copy ``data`` into a 2-d complex array, rejecting NaN/Inf entries and ints beyond the float range."""
    arr = _array(data)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvariantViolation(f"{name} contains non-finite entries")
    return arr


def _norm(x: np.ndarray) -> float:
    """``float(np.linalg.norm(x))``, a vector's 2-norm or a matrix's Frobenius norm: numpy's dots, summed and rooted in floats."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        return math.sqrt(float(x.real.dot(x.real)) + float(x.imag.dot(x.imag)))
    return math.sqrt(float(x.dot(x)))


def _check_dims(a: int, b: int) -> None:
    if a != b:
        raise DimensionMismatch(f"dimensions differ: {a} vs {b}")


def _unwarned(arr: np.ndarray):
    """A null context that gives True when no entry of ``arr`` is NaN or above 1e60 in size, so no product or norm of
    them overflows; else numpy's overflow and invalid-value warnings off, so a check on them fails on its value unwarned."""
    moderate = abs(arr.ravel().view(float)).max(initial=0.0) <= 1e60
    return nullcontext(True) if moderate else np.errstate(over="ignore", invalid="ignore")


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``, which with its memory's owner is frozen: the view refuses ``setflags(write=True)``. An
    owner numpy allocated (``.base``) can be re-enabled, as ``vars(value)`` can be written; one backed by ``bytes`` cannot."""
    (arr if arr.base is None else arr.base).setflags(write=False)
    arr.setflags(write=False)
    return arr.view()


class _Immutable:
    """Refuses every attribute write and delete: each constructor writes its attributes once into the instance dict."""

    @classmethod
    def _trusted(cls, **attrs):
        """A ``cls`` of ``attrs`` the engine built valid; checks and freezes nothing, so pass arrays already read-only."""
        self = cls.__new__(cls)
        vars(self).update(attrs)
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is immutable")


class StateVector(_Immutable):
    """Unit complex vector; a pure state up to global phase."""

    def __init__(self, amplitudes):
        arr = _array(amplitudes).reshape(-1)
        if arr.size == 0:
            raise DimensionMismatch("state vector cannot be empty")
        with _unwarned(arr) as moderate:
            if not (moderate or np.isfinite(arr).all()):
                raise InvariantViolation("state vector contains non-finite entries")
            nrm = _norm(arr)
        if not (abs(nrm - 1.0) <= tol.UNIT_NORM_TOL):
            raise InvariantViolation(
                f"state vector violates the unit-norm invariant: ||psi|| = {nrm!r}"
            )
        vars(self)["amplitudes"] = _frozen(arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def inner(self, other: "StateVector") -> complex:
        """Hermitian inner product <self|other>."""
        _check_dims(self.dim, other.dim)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


class HermitianOperator(_Immutable):
    """r x r complex self-adjoint matrix."""

    def __init__(self, matrix):
        arr = as_complex_matrix(matrix, type(self).__name__)
        if arr.shape[0] != arr.shape[1] or not arr.size:
            raise DimensionMismatch(f"{type(self).__name__} must be square and non-empty, got {arr.shape}")
        with _unwarned(arr):
            dev = float(np.abs(arr - arr.conj().T).max())
        if not (dev <= tol.HERMITIAN_ENTRY_TOL):
            raise NotHermitian(
                f"{type(self).__name__} is not self-adjoint: "
                f"max |A - A^dag| entry = {dev:.3e} > {tol.HERMITIAN_ENTRY_TOL:.1e}"
            )
        vars(self)["matrix"] = _frozen(arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class Effect(HermitianOperator):
    """Hermitian operator with spectrum in [0, 1]; a generalized event."""

    def __init__(self, matrix):
        super().__init__(matrix)
        w = np.linalg.eigvalsh(self.matrix)
        if not (w[0] >= -tol.EFFECT_EIG_TOL and w[-1] <= 1.0 + tol.EFFECT_EIG_TOL):
            raise InvalidEffect(f"effect spectrum [{w[0]:.3e}, {w[-1]:.3e}] is not within [0, 1]")


class Projector(Effect):
    """Idempotent Hermitian operator, an effect with spectrum {0, 1}; ``rank`` is its trace rounded. Idempotence within
    ``PROJECTOR_IDEM_TOL`` (<= ``EFFECT_EIG_TOL``) bounds each |l^2 - l|, so no eigenvalue check is run."""

    def __init__(self, matrix):
        HermitianOperator.__init__(self, matrix)
        m = self.matrix
        with _unwarned(m):
            idem_dev = _norm(m @ m - m)
        if not (idem_dev <= tol.PROJECTOR_IDEM_TOL):
            raise InvariantViolation(
                f"projector violates idempotence: ||P@P - P||_F = {idem_dev:.3e} > {tol.PROJECTOR_IDEM_TOL:.1e}"
            )
        tr = float(m.trace().real)
        rank = round(tr)
        if rank < 1 or not (abs(tr - rank) <= tol.PROJECTOR_TRACE_TOL):
            raise InvariantViolation(
                f"projector trace {tr!r} is not a positive integer rank within {tol.PROJECTOR_TRACE_TOL:.1e}"
            )
        vars(self)["rank"] = rank


class DensityOperator(HermitianOperator):
    """Positive semidefinite, trace-one operator; a possibly mixed state."""

    def __init__(self, matrix):
        super().__init__(matrix)
        with _unwarned(self.matrix):
            tr = float(self.matrix.trace().real)
        if not (abs(tr - 1.0) <= tol.DENSITY_TRACE_TOL):
            raise InvariantViolation(f"density operator trace {tr!r} differs from 1")
        lo = float(np.linalg.eigvalsh(self.matrix).min())
        if not (lo >= -tol.DENSITY_EIG_FLOOR):
            raise InvariantViolation(
                f"density operator has negative eigenvalue {lo:.3e} below -{tol.DENSITY_EIG_FLOOR:.1e}"
            )

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityOperator":
        """Rank-one density |psi><psi| / <psi|psi> of the ray, so its trace is 1 however far ||psi|| is from 1."""
        a = psi.amplitudes
        return cls._trusted(matrix=_frozen(np.outer(a, a.conj()) / np.vdot(a, a).real))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues ascending, orthonormal eigenvector columns, degeneracy groups.

    ``groups`` partitions the index range; indices land in the same group
    when their eigenvalues differ by less than the degeneracy tolerance used
    at decomposition time.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple[tuple[int, ...], ...]


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its first non-negligible entry is real positive."""
    v = v.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            lead = col[nz[0]]
            v[:, k] = col * (lead.conj() / abs(lead))
    return v


def _column_sort_key(col: np.ndarray) -> tuple:
    nz = np.flatnonzero(np.abs(col) > 1e-12)
    first = int(nz[0]) if nz.size else col.size
    rounded = np.round(np.concatenate([col.real, col.imag]), 10)
    return (first, tuple(-rounded))


def hermitian_eig(a) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with a fixed output convention.

    Eigenvalues are sorted ascending. Each eigenvector's global phase is
    fixed (first non-negligible component real positive) and columns inside
    a degeneracy group are deterministically ordered, so repeated runs on
    the same input produce identical output. Adjacent eigenvalues closer
    than ``DEGENERACY_TOL_SCALE * max(1, spectral range)`` share a group.

    Raises:
        NotHermitian: relative asymmetry above ``HERMITIAN_REL_TOL``.
        NoConvergence: the solver failed or missed its residual contract.
    """
    arr = as_complex_matrix(getattr(a, "matrix", a))
    if arr.shape[0] != arr.shape[1] or not arr.size:
        raise DimensionMismatch(f"eigendecomposition input must be square and non-empty, got {arr.shape}")
    nrm = _norm(arr)
    asym = _norm(arr - arr.conj().T)
    if asym > tol.HERMITIAN_REL_TOL * max(nrm, np.finfo(float).tiny):
        raise NotHermitian(
            f"matrix is not Hermitian: ||A - A^dag||_F = {asym:.3e} vs ||A||_F = {nrm:.3e}"
        )
    try:
        w, v = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc

    spread = float(w[-1] - w[0])
    degeneracy_tol = tol.DEGENERACY_TOL_SCALE * max(1.0, spread)

    groups: list[list[int]] = []
    for i in range(w.size):
        if groups and w[i] - w[groups[-1][-1]] < degeneracy_tol:
            groups[-1].append(i)
        else:
            groups.append([i])

    v = _fix_column_phases(v)
    w = w.copy()
    for g in groups:
        if len(g) > 1:
            # reorder eigenpairs jointly so pairing stays exact
            order = sorted(g, key=lambda i: _column_sort_key(v[:, i]))
            v[:, g] = v[:, order]
            w[g] = w[order]

    residual = _norm(arr - (v * w) @ v.conj().T)
    if residual > tol.EIG_RESIDUAL_TOL * max(1.0, nrm):
        raise NoConvergence(
            f"eigendecomposition residual {residual:.3e} exceeds contract"
        )
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralDecomposition(w, v, tuple(tuple(g) for g in groups))


def _span_projection(cols: np.ndarray) -> np.ndarray:
    """Orthogonal projection matrix onto the span of independent columns, made exactly self-adjoint; on a stack of
    such matrices, one per matrix. Q is bit for bit ``np.linalg.qr``'s, from the gufuncs it calls but without its
    dispatch, error state and unread R: LAPACK flags only malformed arguments, and on any columns it returns the same Q."""
    a = cols.astype(complex)  # qr_r_raw overwrites this copy with the reflectors
    q = _umath_linalg.qr_reduced(a, _umath_linalg.qr_r_raw(a, signature="D->D"), signature="DD->D")
    p = q @ q.conj().swapaxes(-1, -2)
    p += p.conj().swapaxes(-1, -2)  # conj() copies, so the sum reads no entry it has written
    p /= 2.0
    return p


def _vector_rows(vectors: Sequence[StateVector | np.ndarray] | np.ndarray) -> np.ndarray:
    """A list of vectors as a k x r complex array, one row per vector: a sequence of vectors, or a k x r array."""
    if isinstance(vectors, np.ndarray):
        if vectors.ndim != 2:
            raise DimensionMismatch(f"a group is a list of vectors or a k x r array, got an array of shape {vectors.shape}")
        return vectors.astype(complex, copy=False)
    rows = [v.amplitudes if isinstance(v, StateVector) else _array(v).reshape(-1) for v in vectors]
    if len({row.size for row in rows}) > 1:
        raise DimensionMismatch("eigenvectors have inconsistent dimensions")
    return np.array(rows) if rows else np.empty((0, 0), dtype=complex)


def projector_onto_span(vectors: Sequence[StateVector | np.ndarray] | np.ndarray) -> Projector:
    """Orthogonal projector onto the span of ``vectors``, given as one group of ``variable_from_spectrum`` is.

    Raises ``DimensionMismatch`` for vectors of two lengths or an array that is not k x r, ``InvariantViolation`` for a
    NaN or infinite entry or entries too large for a finite projector, and ``DegenerateSpan`` for no vectors or vectors
    linearly dependent within ``SPAN_RANK_TOL`` (smallest singular value).
    """
    cols = _vector_rows(vectors).T  # one vector per column
    if cols.shape[1] == 0:
        raise DegenerateSpan("cannot project onto the span of an empty list")
    if cols.shape[1] > cols.shape[0]:
        raise DegenerateSpan(f"{cols.shape[1]} vectors cannot be independent in dimension {cols.shape[0]}")
    with _unwarned(cols) as moderate:
        if not (moderate or np.isfinite(cols).all()):
            raise InvariantViolation("vectors to project onto contain non-finite entries")
        sing = np.linalg.svd(cols, compute_uv=False)
        if sing.min() <= tol.SPAN_RANK_TOL:
            raise DegenerateSpan(f"vectors are linearly dependent: smallest singular value {sing.min():.3e}")
        p = _span_projection(cols)
        if not (moderate or np.isfinite(p).all()):
            raise InvariantViolation("vectors to project onto are too large to give a finite projector")
    return Projector(p)
