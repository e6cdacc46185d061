"""Decision variables as operators with spectral data.

A decision variable is a named question with finitely many answer values;
it is carried as a self-adjoint operator together with one eigenprojector
per value. Maximality, functions of variables and unitary conjugation are
all expressed on that spectral data.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence

import numpy as np

from . import tolerances as tol
from .errors import (
    DegenerateSpan,
    DimensionMismatch,
    DuplicateValues,
    InvariantViolation,
    NonOrthonormalBasis,
    NotUnitary,
    UnknownValue,
    _shown,
)
from .linalg import (
    HermitianOperator,
    Projector,
    StateVector,
    _frozen,
    _Immutable,
    _check_dims,
    _in_range,
    _norm,
    _real,
    _span_projection,
    _vector_rows,
    as_complex_matrix,
)

__all__ = [
    "UnitaryOperator",
    "DecisionVariable",
    "variable_from_spectrum",
    "is_maximal",
    "apply_function",
    "conjugate",
    "is_one_to_one_related",
    "are_complementary",
    "round_value",
]


_VALUE_FORMAT = f".{tol.VALUE_SIG_DIGITS}g"  # built once: a nested spec is rebuilt on every call


def round_value(x: float) -> float:
    """Round to the significant digits used for value identification."""
    return float(f"{x if type(x) is float else _real(x):{_VALUE_FORMAT}}")  # a float skips the call: every value lookup runs this


@functools.cache  # documents stop at MAX_DIMENSION; a library caller adds one table per dimension it builds in
def _eye(r: int) -> np.ndarray:
    """``np.eye(r)``, built once per dimension as an array no caller can make writeable, like ``engine._upper``."""
    return _frozen(np.eye(r))


def _position(index: dict[float, int], value: float) -> int | None:
    """``index.get(round_value(value))`` on rounded keys. A float is probed as it is first: a rounded key rounds to
    itself, so a float equal to one is found without the format."""
    j = index.get(value) if type(value) is float else None
    return index.get(round_value(value)) if j is None else j


class UnitaryOperator(_Immutable):
    """r x r matrix with W^dag W = I within tolerance."""

    def __init__(self, matrix):
        arr = as_complex_matrix(getattr(matrix, "matrix", matrix))
        if arr.shape[0] != arr.shape[1] or not arr.size:
            raise DimensionMismatch(f"unitary must be square and non-empty, got {arr.shape}")
        dev = _norm(arr.conj().T @ arr - np.eye(arr.shape[0]))
        if not (dev <= tol.UNITARY_TOL):
            raise NotUnitary(f"||W^dag W - I||_F = {dev:.3e} > {tol.UNITARY_TOL:.1e}")
        vars(self)["matrix"] = _frozen(arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


_SUM_MAX = 1e300  # m values or images each below _SUM_MAX / m in size: no sum over m projectors or probabilities overflows


def _bounded(values: Sequence[float], m: int) -> bool:
    """Every ``u_j`` finite and below ``_SUM_MAX / m`` in size, so ``sum_j u_j P_j`` cannot overflow: no projector entry
    exceeds 1."""
    return all(map(math.isfinite, values)) and max(map(abs, values)) < _SUM_MAX / m


def _spectral_sum(values: Sequence[float], projectors: Sequence[Projector]) -> np.ndarray:
    """``sum_j u_j P_j`` made exactly self-adjoint, of ``_bounded`` values, as every caller passes, so it is finite."""
    op = sum(u * p.matrix for u, p in zip(values, projectors))
    return (op + op.conj().T) / 2.0


class DecisionVariable(_Immutable):
    """Named variable with strictly increasing values and eigenprojectors.

    Invariants (checked here): values strictly increasing and ``_bounded``;
    projectors mutually orthogonal and resolving the identity within
    ``ORTHONORMALITY_TOL``.
    """

    def __init__(self, name: str, values: Sequence[float], projectors: Sequence[Projector]):
        vals = [_real(v) for v in values]
        if len(vals) != len(projectors):
            raise DimensionMismatch(f"{len(vals)} values but {len(projectors)} projectors")
        index = {round_value(u): j for j, u in enumerate(vals)}
        if len(index) != len(vals):
            raise DuplicateValues(f"variable {name!r} has repeated values: {vals}")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise DuplicateValues(f"variable {name!r} values must be strictly increasing: {vals}")

        dims = {p.dim for p in projectors}
        if len(dims) != 1:
            raise DimensionMismatch(f"projector dimensions disagree: {sorted(dims)}")
        r = dims.pop()
        if sum(p.rank for p in projectors) != r:
            raise DimensionMismatch(f"projector ranks sum to {sum(p.rank for p in projectors)}, expected {r}")
        total = sum(p.matrix for p in projectors)
        if not (_norm(total - _eye(r)) <= tol.ORTHONORMALITY_TOL):
            raise NonOrthonormalBasis(f"eigenprojectors of {name!r} do not resolve the identity")
        for i in range(len(projectors)):
            for j in range(i + 1, len(projectors)):
                cross = _norm(projectors[i].matrix @ projectors[j].matrix)
                if not (cross <= tol.ORTHONORMALITY_TOL):
                    raise NonOrthonormalBasis(f"eigenprojectors {i} and {j} of {name!r} are not orthogonal")

        self._assign(name, vals, projectors, index)

    def _assign(self, name: str, vals: list[float], projectors: Sequence[Projector], index: dict[float, int]) -> None:
        """Refuse values that are not ``_bounded``, then set every attribute in one write to the instance dict."""
        if not _bounded(vals, len(projectors)):
            raise InvariantViolation(f"variable {name!r} values must be finite and give a finite operator: {vals}")
        vars(self).update(name=str(name), values=tuple(vals), _index=index, eigenprojectors=tuple(projectors))

    @functools.cached_property
    def operator(self) -> HermitianOperator:
        """The self-adjoint ``sum_j u_j P_j``, built on its first read; later reads find it in the instance dict.
        _Immutable refuses to write or delete it, before its first read too."""
        return HermitianOperator._trusted(matrix=_frozen(_spectral_sum(self.values, self.eigenprojectors)))

    @property
    def dim(self) -> int:
        return self.eigenprojectors[0].dim

    def value_index(self, value: float) -> int:
        """Position of ``value`` among the values, matched at ``VALUE_SIG_DIGITS``."""
        j = _position(self._index, value)
        if j is None:
            raise UnknownValue(f"{_shown(value)} is not a value of variable {self.name!r}")
        return j

    def projector_for(self, value: float) -> Projector:
        return self.eigenprojectors[self.value_index(value)]

    def __repr__(self) -> str:
        return f"DecisionVariable({self.name!r}, values={self.values}, dim={self.dim})"


def variable_from_spectrum(
    name: str,
    values: Sequence[float],
    eigenbasis: Sequence[Sequence[StateVector | np.ndarray] | np.ndarray],
) -> DecisionVariable:
    """Assemble a variable from values and orthonormal eigenvector groups.

    ``eigenbasis[j]`` spans the eigenspace of ``values[j]``: a sequence of
    vectors, or a k x r array with one eigenvector per row. The groups must
    jointly form an orthonormal basis of the full space within
    ``ORTHONORMALITY_TOL``. That one check stands for every projector and
    variable invariant, so the result is built without re-checking them.
    The groups of each size are projected in one stacked QR.
    """
    if len(values) != len(eigenbasis):
        raise DimensionMismatch(f"{len(values)} values but {len(eigenbasis)} eigenvector groups")
    vals = [_real(v) for v in values]
    keys = [round_value(v) for v in vals]
    if len(set(keys)) != len(vals):
        raise DuplicateValues(f"values must be distinct: {vals}")

    groups = [_vector_rows(g) for g in eigenbasis]
    filled = [g for g in groups if len(g)]
    if not filled:
        raise DimensionMismatch("eigenbasis is empty")
    r = filled[0].shape[1]
    if any(g.shape[1] != r for g in filled):
        raise DimensionMismatch("eigenvectors have inconsistent dimensions")
    basis = np.concatenate(filled)  # one eigenvector per row
    if len(basis) != r:
        raise DimensionMismatch(f"total eigenvector count {len(basis)} must equal the dimension {r}")
    # an entry that fails the range gate leaves the Gram deviation uncomputed, as nan
    gram_dev = _norm(basis.conj() @ basis.T - _eye(r)) if _in_range(basis) else math.nan
    if not (gram_dev <= tol.ORTHONORMALITY_TOL):
        raise NonOrthonormalBasis(f"eigenbasis is not orthonormal: ||V^dag V - I||_F = {gram_dev:.3e}")
    if len(filled) != len(groups):
        raise DegenerateSpan("cannot project onto the span of an empty list")

    matrices = {}
    for k in {len(g) for g in groups}:
        members = [j for j, g in enumerate(groups) if len(g) == k]
        batch = np.concatenate([groups[j] for j in members]).reshape(len(members), k, r)
        stack = _span_projection(batch.swapaxes(-1, -2))
        matrices.update(zip(members, _frozen(stack)))  # one freeze per stack; each row is a read-only view of it
    order = sorted(range(len(vals)), key=lambda j: vals[j])
    projectors = [Projector._trusted(matrix=matrices[j], rank=len(groups[j])) for j in order]
    v = DecisionVariable.__new__(DecisionVariable)  # the basis check stands for every invariant but the values'
    v._assign(name, [vals[j] for j in order], projectors, {keys[j]: i for i, j in enumerate(order)})
    return v


def is_maximal(v: DecisionVariable) -> bool:
    """A variable is maximal iff every eigenvalue is simple (all ranks 1)."""
    return all(p.rank == 1 for p in v.eigenprojectors)


def apply_function(v: DecisionVariable, f: Callable[[float], float]) -> DecisionVariable:
    """The variable f(v): values mapped through f, equal images merged.

    Projectors of values with the same image are summed, so the result is
    always below ``v`` in the coarsening order.
    """
    merged: dict[float, np.ndarray] = {}
    for u, p in zip(v.values, v.eigenprojectors):
        image = f(u)
        key = round_value(image)
        if not math.isfinite(key):  # an int beyond the float range reads as nan here: name the int
            raise InvariantViolation(f"f({v.name!r}) must be finite, got f({_shown(u)}) = {_shown(image)}")
        merged[key] = merged.get(key, 0.0) + p.matrix
    new_values = sorted(merged)
    projectors = [Projector(merged[u]) for u in new_values]
    return DecisionVariable(v.name, new_values, projectors)


def conjugate(v: DecisionVariable, w: UnitaryOperator | np.ndarray) -> DecisionVariable:
    """Transport a variable through a unitary: operator W^-1 A W.

    Values are unchanged; each eigenprojector becomes W^-1 P W.
    """
    if not isinstance(w, UnitaryOperator):
        w = UnitaryOperator(w)
    if w.dim != v.dim:
        raise DimensionMismatch(f"unitary dim {w.dim} does not match variable dim {v.dim}")
    wd = w.matrix.conj().T
    projectors = []
    for p in v.eigenprojectors:
        m = wd @ p.matrix @ w.matrix
        projectors.append(Projector((m + m.conj().T) / 2.0))
    return DecisionVariable(v.name, v.values, projectors)


def is_one_to_one_related(v1: DecisionVariable, v2: DecisionVariable) -> bool:
    """True iff the two variables share eigenprojectors up to pairing.

    A bijection between the projector lists with per-pair Frobenius
    distance below ``PROJECTOR_MATCH_TOL`` must exist; values may differ (the
    variables are then invertible relabelings of each other).
    """
    _check_dims(v1.dim, v2.dim)
    if len(v1.eigenprojectors) != len(v2.eigenprojectors):
        return False
    unused = list(v2.eigenprojectors)
    for p in v1.eigenprojectors:
        for k, q in enumerate(unused):
            if _norm(p.matrix - q.matrix) <= tol.PROJECTOR_MATCH_TOL:
                del unused[k]
                break
        else:
            return False
    return True


def are_complementary(v1: DecisionVariable, v2: DecisionVariable) -> bool:
    """Both maximal and not in one-to-one correspondence."""
    return is_maximal(v1) and is_maximal(v2) and not is_one_to_one_related(v1, v2)
