"""Exception hierarchy.

Two families: ``EngineError`` for failures inside the probability engine
(the CLI maps these to exit code 2) and ``ScenarioError`` for problems in a
scenario document (exit code 1).
"""

from __future__ import annotations


def _shown(x, show=repr) -> str:
    """``show(x)`` for a message; an int beyond Python's int-to-string digit limit, which ``show`` refuses, by its size."""
    try:
        return show(x)
    except ValueError:  # only an int's digit limit: a number's repr raises nothing else
        return f"{'a negative' if x < 0 else 'an'} int of {x.bit_length()} bits"


class EngineError(Exception):
    """Base class for all computational failures."""


class DimensionMismatch(EngineError):
    """Operands live in incompatible spaces."""


class InvariantViolation(EngineError):
    """A typed value failed its construction invariant."""


class NotHermitian(InvariantViolation):
    """Matrix is not self-adjoint within tolerance."""


class InvalidEffect(InvariantViolation):
    """Operator spectrum is not contained in [0, 1]."""


class NotUnitary(InvariantViolation):
    """Matrix is not unitary within tolerance."""


class NoConvergence(EngineError):
    """Eigensolver did not converge: it gave an eigenvalue that is not finite."""


class DegenerateSpan(EngineError):
    """Vectors handed to a span projector are linearly dependent."""


class DuplicateValues(EngineError):
    """A decision variable was given repeated values."""


class NonOrthonormalBasis(EngineError):
    """Eigenvector groups are not orthonormal within tolerance."""


class UnknownValue(EngineError):
    """Referenced value is not among a variable's values."""


class ZeroProbabilityOutcome(EngineError):
    """Conditioning on an outcome of (numerically) zero probability."""


class UnknownDataLabel(EngineError):
    """Data label missing from a likelihood table."""


class InsufficientSpan(EngineError):
    """Effects do not span the Hermitian operator space."""


class InconsistentSamples(EngineError):
    """Sample probabilities cannot come from any single density operator."""


class NotAPartition(EngineError):
    """Projector family does not resolve the identity as required."""


class DegenerateConditioning(EngineError):
    """Monte Carlo conditioning event received no samples."""


class InvalidSampleCount(EngineError, ValueError):
    """A sample count is outside 1 to ``MAX_SPIN_SAMPLES``; also a ``ValueError``, the type Python gives a bad count."""


class InvalidSeed(EngineError, ValueError):
    """A seed is negative; also a ``ValueError``, the type numpy's generators raise for one."""


class ScenarioError(Exception):
    """Base class for scenario document problems."""


class ScenarioSyntaxError(ScenarioError):
    """Document is not well formed; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class ScenarioValidationError(ScenarioError):
    """Document is well formed but violates an invariant; carries a location."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location
