"""Decision variables as operators with spectral data.

A decision variable is a named question with finitely many answer values;
it is carried as a self-adjoint operator together with one eigenprojector
per value. Maximality, functions of variables and unitary conjugation are
all expressed on that spectral data.
"""

from __future__ import annotations

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
)
from .linalg import (
    HermitianOperator,
    Projector,
    StateVector,
    _span_projection,
    matrix_of,
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


def round_value(x: float) -> float:
    """Round to the significant digits used for value identification."""
    return float(f"{float(x):.{tol.VALUE_SIG_DIGITS}g}")


class UnitaryOperator:
    """r x r matrix with W^dag W = I within tolerance."""

    def __init__(self, matrix):
        arr = matrix_of(matrix).copy()
        if arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"unitary must be square, got {arr.shape}")
        dev = float(np.linalg.norm(arr.conj().T @ arr - np.eye(arr.shape[0]), "fro"))
        if not (dev <= tol.UNITARY_TOL):
            raise NotUnitary(f"||W^dag W - I||_F = {dev:.3e} > {tol.UNITARY_TOL:.1e}")
        arr.setflags(write=False)
        self.matrix = arr

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _spectral_sum(values: Sequence[float], projectors: Sequence[Projector]) -> np.ndarray | None:
    """``sum_j u_j P_j`` made exactly self-adjoint, or None when it is not finite: a NaN or
    infinite ``u_j`` is caught before any arithmetic, finite ones whose sum overflows after it."""
    if not np.isfinite(values).all():
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        op = sum(u * p.matrix for u, p in zip(values, projectors))
        op = (op + op.conj().T) / 2.0
    return op if np.isfinite(op).all() else None


class DecisionVariable:
    """Named variable with strictly increasing values and eigenprojectors.

    Invariants (checked here): values strictly increasing; projectors
    mutually orthogonal and resolving the identity within
    ``ORTHONORMALITY_TOL``; operator ``sum_j u_j P_j`` finite.
    """

    def __init__(self, name: str, values: Sequence[float], projectors: Sequence[Projector]):
        vals = [float(v) for v in values]
        if len(vals) != len(projectors):
            raise DimensionMismatch(
                f"{len(vals)} values but {len(projectors)} projectors"
            )
        if len(set(round_value(v) for v in vals)) != len(vals):
            raise DuplicateValues(f"variable {name!r} has repeated values: {vals}")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise DuplicateValues(f"variable {name!r} values must be strictly increasing: {vals}")

        dims = {p.dim for p in projectors}
        if len(dims) != 1:
            raise DimensionMismatch(f"projector dimensions disagree: {sorted(dims)}")
        r = dims.pop()
        if sum(p.rank for p in projectors) != r:
            raise DimensionMismatch(
                f"projector ranks sum to {sum(p.rank for p in projectors)}, expected {r}"
            )
        total = sum(p.matrix for p in projectors)
        if not (float(np.linalg.norm(total - np.eye(r), "fro")) <= tol.ORTHONORMALITY_TOL):
            raise NonOrthonormalBasis(
                f"eigenprojectors of {name!r} do not resolve the identity"
            )
        for i in range(len(projectors)):
            for j in range(i + 1, len(projectors)):
                cross = float(np.linalg.norm(projectors[i].matrix @ projectors[j].matrix, "fro"))
                if not (cross <= tol.ORTHONORMALITY_TOL):
                    raise NonOrthonormalBasis(
                        f"eigenprojectors {i} and {j} of {name!r} are not orthogonal"
                    )

        self._assign(name, vals, projectors)

    @classmethod
    def _trusted(
        cls, name: str, values: list[float], projectors: list[Projector]
    ) -> "DecisionVariable":
        """Variable from sorted distinct values and eigenprojectors the engine
        built from a checked orthonormal basis; checks only the values."""
        self = cls.__new__(cls)
        self._assign(name, values, projectors)
        return self

    def _assign(self, name: str, vals: list[float], projectors: Sequence[Projector]) -> None:
        op = _spectral_sum(vals, projectors)
        if op is None:
            raise InvariantViolation(
                f"variable {name!r} values must be finite and give a finite operator: {vals}"
            )
        self.name = str(name)
        self.values = tuple(vals)
        self.eigenprojectors = tuple(projectors)
        self.operator = HermitianOperator._trusted(op)

    @property
    def dim(self) -> int:
        return self.operator.dim

    def value_index(self, value: float) -> int:
        key = round_value(value)
        for j, u in enumerate(self.values):
            if round_value(u) == key:
                return j
        raise UnknownValue(f"{value!r} is not a value of variable {self.name!r}")

    def projector_for(self, value: float) -> Projector:
        return self.eigenprojectors[self.value_index(value)]

    def __repr__(self) -> str:
        return f"DecisionVariable({self.name!r}, values={self.values}, dim={self.dim})"


def variable_from_spectrum(
    name: str,
    values: Sequence[float],
    eigenbasis: Sequence[Sequence[StateVector | np.ndarray]],
) -> DecisionVariable:
    """Assemble a variable from values and orthonormal eigenvector groups.

    ``eigenbasis[j]`` spans the eigenspace of ``values[j]``; the groups must
    jointly form an orthonormal basis of the full space within
    ``ORTHONORMALITY_TOL``. That one check stands for every projector and
    variable invariant, so the result is built without re-checking them.
    """
    if len(values) != len(eigenbasis):
        raise DimensionMismatch(
            f"{len(values)} values but {len(eigenbasis)} eigenvector groups"
        )
    vals = [float(v) for v in values]
    if len(set(round_value(v) for v in vals)) != len(vals):
        raise DuplicateValues(f"values must be distinct: {vals}")

    groups = [
        [v.amplitudes if isinstance(v, StateVector) else np.asarray(v, dtype=complex).reshape(-1) for v in group]
        for group in eigenbasis
    ]
    columns = [c for group in groups for c in group]
    if not columns:
        raise DimensionMismatch("eigenbasis is empty")
    r = columns[0].size
    if any(c.size != r for c in columns):
        raise DimensionMismatch("eigenvectors have inconsistent dimensions")
    if len(columns) != r:
        raise DimensionMismatch(
            f"total eigenvector count {len(columns)} must equal the dimension {r}"
        )
    basis = np.column_stack(columns)
    # a NaN or infinite entry leaves the Gram deviation undefined, so it is not computed
    gram_dev = float(np.linalg.norm(basis.conj().T @ basis - np.eye(r), "fro")) if np.isfinite(basis).all() else np.nan
    if not (gram_dev <= tol.ORTHONORMALITY_TOL):
        raise NonOrthonormalBasis(
            f"eigenbasis is not orthonormal: ||V^dag V - I||_F = {gram_dev:.3e}"
        )
    if any(not group for group in groups):
        raise DegenerateSpan("cannot project onto the span of an empty list")

    order = sorted(range(len(vals)), key=lambda j: vals[j])
    projectors = [
        Projector._trusted(_span_projection(np.column_stack(groups[j])), len(groups[j]))
        for j in order
    ]
    return DecisionVariable._trusted(name, [vals[j] for j in order], projectors)


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
        key = round_value(f(u))
        if key in merged:
            merged[key] = merged[key] + p.matrix
        else:
            merged[key] = p.matrix.copy()
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
    if v1.dim != v2.dim:
        raise DimensionMismatch(f"dimensions differ: {v1.dim} vs {v2.dim}")
    if len(v1.eigenprojectors) != len(v2.eigenprojectors):
        return False
    unused = list(v2.eigenprojectors)
    for p in v1.eigenprojectors:
        for k, q in enumerate(unused):
            if float(np.linalg.norm(p.matrix - q.matrix, "fro")) <= tol.PROJECTOR_MATCH_TOL:
                del unused[k]
                break
        else:
            return False
    return True


def are_complementary(v1: DecisionVariable, v2: DecisionVariable) -> bool:
    """Both maximal and not in one-to-one correspondence."""
    return is_maximal(v1) and is_maximal(v2) and not is_one_to_one_related(v1, v2)
