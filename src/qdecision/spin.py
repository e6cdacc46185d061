"""Planar hidden-direction spin model and its quantum counterpart.

A single inaccessible direction phi lives on the unit circle; the binary
spin answer along direction a is sign(cos(a - phi)). Sampling phi uniformly
reproduces the fair +1/-1 marginals of every direction, while the joint
behaviour of two directions differs from the Born-rule conditional; the
comparison report puts both side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import transition_probability
from .errors import DegenerateConditioning
from .linalg import StateVector

__all__ = [
    "Direction",
    "SpinComparison",
    "spin_component",
    "sample_phi",
    "classical_conditional",
    "classical_conditional_analytic",
    "quantum_conditional",
    "comparison_report",
    "angular_separation",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Direction:
    """Direction on the circle, normalized to [0, 2*pi)."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", float(self.angle) % TWO_PI)

    @classmethod
    def from_degrees(cls, degrees: float) -> "Direction":
        return cls(math.radians(degrees))


def _angle(d) -> float:
    return d.angle if isinstance(d, Direction) else float(d)


def angular_separation(a, b) -> float:
    """Separation of two directions in [0, pi]."""
    d = abs(_angle(a) - _angle(b)) % TWO_PI
    return min(d, TWO_PI - d)


def spin_component(a, phi):
    """sign(cos(a - phi)) with the tie cos = 0 resolved to +1.

    Accepts a scalar phi or an array of phi samples.
    """
    out = np.where(_plus(a, np.asarray(phi, dtype=float)), 1, -1)
    return int(out) if out.ndim == 0 else out


def _plus(a, phi: np.ndarray) -> np.ndarray:
    """Mask of the samples whose spin along ``a`` is +1 (cos = 0 counts as +1): ``np.cos(a - phi) >= 0``.

    For 0 <= x = |a - phi| < 2*pi, cos(x) >= 0 exactly when x <= pi/2 (``math.pi / 2`` is the largest double
    below pi/2) or x >= 3*pi/2 (the double after ``3 * math.pi / 2``, which rounds below). Larger x use ``np.cos``.
    """
    x = np.abs(_angle(a) - phi)
    plus, big = (x <= math.pi / 2) | (x >= math.nextafter(3 * math.pi / 2, math.inf)), x >= TWO_PI
    return np.where(big, np.cos(x) >= 0.0, plus) if big.any() else plus


def sample_phi(n: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-uniform samples of phi on [0, 2*pi).

    Drawn from the first child stream of ``SeedSequence(seed)``, so the
    result for a given (seed, n) pair is always the same.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    child = np.random.SeedSequence(seed).spawn(1)[0]
    return np.random.default_rng(child).uniform(0.0, TWO_PI, n)


def classical_conditional(a, b, n: int, seed: int) -> float:
    """Monte Carlo estimate of P(spin_b = +1 | spin_a = +1) under uniform phi."""
    return comparison_report(a, b, n, seed).classical_estimate


def classical_conditional_analytic(a, b) -> float:
    """Exact half-circle overlap (pi - delta) / pi."""
    return (math.pi - angular_separation(a, b)) / math.pi


def _spin_up_state(direction) -> StateVector:
    half = _angle(direction) / 2.0
    return StateVector([math.cos(half), math.sin(half)])


def quantum_conditional(a, b) -> float:
    """Born conditional P(spin_b = +1 | spin_a = +1) for qubit spin states.

    Built from the explicit spin eigenvectors and the transition
    probability; the closed form cos^2(delta / 2) is left to the tests.
    """
    return transition_probability(_spin_up_state(a), _spin_up_state(b))


@dataclass(frozen=True)
class SpinComparison:
    classical_estimate: float
    classical_analytic: float
    quantum: float
    gap: float
    p_plus_a: float
    p_plus_b: float


def comparison_report(a, b, n: int, seed: int) -> SpinComparison:
    """Classical (sampled and exact) against quantum conditionals, with the
    sampled +1 marginals of both directions, all from one draw of ``n`` phi."""
    phi = sample_phi(n, seed)
    plus_a, plus_b = _plus(a, phi), _plus(b, phi)
    count_a = np.count_nonzero(plus_a)
    if count_a == 0:
        raise DegenerateConditioning("no sample produced spin +1 along the first direction")
    analytic = classical_conditional_analytic(a, b)
    quantum = quantum_conditional(a, b)
    return SpinComparison(
        classical_estimate=float(np.count_nonzero(plus_a & plus_b) / count_a),
        classical_analytic=analytic,
        quantum=quantum,
        gap=quantum - analytic,
        p_plus_a=float(count_a / n),
        p_plus_b=float(np.count_nonzero(plus_b) / n),
    )
