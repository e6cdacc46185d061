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


_ENTRY_MAX = 1e60  # no accepted entry is larger in size, so no product, norm or eigenvalue of them overflows


def _in_range(arr: np.ndarray) -> bool:
    """Every entry of ``arr`` finite and at most ``_ENTRY_MAX`` in size: one reduction over its float view, which a NaN
    fails. The range gate of every array that enters, so that no check after it can overflow or warn."""
    return abs(arr.ravel().view(float)).max(initial=0.0) <= _ENTRY_MAX


def _out_of_range(arr: np.ndarray) -> str:
    """What fails ``_in_range`` in ``arr``, for its entry point's message."""
    return "non-finite entries" if not np.isfinite(arr).all() else f"entries above {_ENTRY_MAX:g} in size"


def as_complex_matrix(data, name: str = "matrix") -> np.ndarray:
    """Copy ``data`` into a 2-d complex array, rejecting NaN/Inf entries, ints beyond the float range and entries
    above ``_ENTRY_MAX`` in size."""
    arr = _array(data)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not _in_range(arr):
        raise InvariantViolation(f"{name} contains {_out_of_range(arr)}")
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


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``, which with its memory's owner is frozen: the view refuses ``setflags(write=True)``. An
    owner numpy allocated (``.base``) can be re-enabled, as ``vars(value)`` can be written; one backed by ``bytes`` cannot."""
    if arr.base is not None:
        arr.base.setflags(write=False)
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
        if not _in_range(arr):
            raise InvariantViolation(f"state vector contains {_out_of_range(arr)}")
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


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """``(w, v)`` of a self-adjoint matrix, read-only: eigenvalues ascending and orthonormal eigenvector columns, as
    LAPACK returns them. The input is a ``HermitianOperator`` or what its constructor accepts.

    Raises:
        DimensionMismatch, InvariantViolation, NotHermitian: ``HermitianOperator``'s errors for the input.
        NoConvergence: an eigenvalue is not finite (LAPACK did not converge).
    """
    w, v = _eigh_lo(HermitianOperator(getattr(a, "matrix", a)).matrix, signature="D->dD")
    if not np.isfinite(w).all():
        raise NoConvergence(f"eigensolver did not converge: eigenvalues {w.tolist()}")
    return _frozen(w), _frozen(v)


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
    NaN or infinite entry or one above ``_ENTRY_MAX`` in size, and ``DegenerateSpan`` for no vectors or vectors
    linearly dependent within ``SPAN_RANK_TOL`` (smallest singular value). The QR of independent columns is
    orthonormal to rounding, so the projector is built as ``variable_from_spectrum`` builds each of its own.
    """
    rows = _vector_rows(vectors)
    cols = rows.T  # one vector per column
    if cols.shape[1] == 0:
        raise DegenerateSpan("cannot project onto the span of an empty list")
    if cols.shape[1] > cols.shape[0]:
        raise DegenerateSpan(f"{cols.shape[1]} vectors cannot be independent in dimension {cols.shape[0]}")
    if not _in_range(rows):
        raise InvariantViolation(f"vectors to project onto contain {_out_of_range(rows)}")
    sing = np.linalg.svd(cols, compute_uv=False)
    if sing.min() <= tol.SPAN_RANK_TOL:
        raise DegenerateSpan(f"vectors are linearly dependent: smallest singular value {sing.min():.3e}")
    return Projector._trusted(matrix=_frozen(_span_projection(cols)), rank=cols.shape[1])
