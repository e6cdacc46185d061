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

# Samples per block of ``comparison_report``'s draw; its 0.6 MiB of buffers are made once per call and stay in
# cache. At 10^6 samples 2^15 and 2^16 took 5.5 ms, 2^13 and 2^17 6.3 to 7 ms, one whole-draw block 12 ms.
_BLOCK = 1 << 15


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
    phi = np.asarray(phi, dtype=float)
    out = np.where(_plus(a, phi.reshape(-1)), 1, -1).reshape(phi.shape)
    return int(out) if out.ndim == 0 else out


def _plus(a, phi: np.ndarray, out=None, x=None, spare=None) -> np.ndarray:
    """Mask of the samples whose spin along ``a`` is +1 (cos = 0 counts as +1): ``np.cos(a - phi) >= 0``.

    For 0 <= x = |a - phi| < 2*pi, cos(x) >= 0 exactly when x <= pi/2 (``math.pi / 2`` is the largest double
    below pi/2) or x >= 3*pi/2 (the double after ``3 * math.pi / 2``, which rounds below). Larger x use ``np.cos``.
    ``out``, ``x``, ``spare``: optional bool, float and bool buffers shaped like ``phi``; the mask lands in ``out``.
    """
    x = np.abs(np.subtract(_angle(a), phi, out=x), out=x)
    plus = np.less_equal(x, math.pi / 2, out=out)
    plus |= np.greater_equal(x, math.nextafter(3 * math.pi / 2, math.inf), out=spare)
    big = np.greater_equal(x, TWO_PI, out=spare)
    if big.any():
        plus[big] = np.cos(x[big]) >= 0.0
    return plus


def _draw(n: int, seed: int, block: int):
    """``sample_phi(n, seed)`` bit for bit (0 + 2*pi*u is 2*pi*u), in blocks of at most ``block`` in one buffer."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    buf = np.empty(min(n, block))
    for start in range(0, n, buf.size):
        phi = rng.random(out=buf[: n - start])
        phi *= TWO_PI
        yield phi


def sample_phi(n: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-uniform samples of phi on [0, 2*pi): ``uniform(0, 2*pi, n)``.

    Drawn from the first child stream of ``SeedSequence(seed)``, so the
    result for a given (seed, n) pair is always the same.
    """
    return next(_draw(n, seed, n))


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
    x, masks = np.empty(_BLOCK), np.empty((3, _BLOCK), dtype=bool)
    count_a = count_b = count_ab = 0
    for phi in _draw(n, seed, _BLOCK):
        plus_a, plus_b, spare = masks[:, : phi.size]
        count_a += int(np.count_nonzero(_plus(a, phi, plus_a, x[: phi.size], spare)))
        count_b += int(np.count_nonzero(_plus(b, phi, plus_b, x[: phi.size], spare)))
        count_ab += int(np.count_nonzero(np.logical_and(plus_a, plus_b, out=spare)))
    if count_a == 0:
        raise DegenerateConditioning("no sample produced spin +1 along the first direction")
    analytic = classical_conditional_analytic(a, b)
    quantum = quantum_conditional(a, b)
    return SpinComparison(
        classical_estimate=count_ab / count_a,
        classical_analytic=analytic,
        quantum=quantum,
        gap=quantum - analytic,
        p_plus_a=count_a / n,
        p_plus_b=count_b / n,
    )
