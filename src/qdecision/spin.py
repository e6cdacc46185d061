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

from . import tolerances as tol
from .engine import transition_probability
from .errors import DegenerateConditioning, InvalidSampleCount, InvalidSeed, InvariantViolation, _shown
from .linalg import StateVector, _array, _real

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

# Samples per block of ``comparison_report``'s draw; its one float and one bool buffer (288 KiB) are made once per
# call and stay in cache. At 10^6 samples 2^15 to 2^17 took 3.0 to 3.1 ms, 2^13 3.7 ms, 2^20 4.3 ms.
_BLOCK = 1 << 15
# ``rng.random()`` returns u = k * 2**-53 for an integer 0 <= k < 2**53 (the top 53 bits of one 64-bit draw).
_K = 1 << 53
_U = 1.0 / _K
# The double after 3*pi/2 (``3 * math.pi / 2`` rounds below it): the least double above pi with cos >= 0.
_C3 = math.nextafter(3 * math.pi / 2, math.inf)


@dataclass(frozen=True)
class Direction:
    """Direction on the circle, normalized to [0, 2*pi)."""

    angle: float

    def __post_init__(self):
        angle = _real(self.angle) % TWO_PI  # a tiny negative angle rounds up to 2*pi itself
        object.__setattr__(self, "angle", 0.0 if angle == TWO_PI else angle)

    @classmethod
    def from_degrees(cls, degrees: float) -> "Direction":
        return cls(math.radians(_real(degrees)))


def _angle(d) -> float:
    """The angle of ``d`` in [0, 2*pi): a raw number is read as its ``Direction``, and a non-finite one as nan."""
    return d.angle if isinstance(d, Direction) else Direction(d).angle


def angular_separation(a, b) -> float:
    """Separation of two directions in [0, pi]."""
    d = abs(_angle(a) - _angle(b))
    return min(d, TWO_PI - d)


def spin_component(a, phi):
    """sign(cos(a - phi)) with the tie cos = 0 resolved to +1.

    Accepts a scalar phi or an array of phi samples. A direction whose angle reads as nan, or a phi that is nan,
    infinite or an int beyond the float range, has no spin.
    """
    angle = _angle(a)
    if angle != angle:
        raise InvariantViolation(f"spin direction {_shown(a)} is not finite")
    phi = _array(phi, float)
    if not np.isfinite(phi).all():
        raise InvariantViolation("hidden direction phi is not finite")
    out = np.where(np.cos(angle - phi) >= 0.0, 1, -1)
    return int(out) if out.ndim == 0 else out


# For |d| < 2*pi, cos(d) >= 0 exactly when |d| <= pi/2 (``math.pi / 2`` is the largest double below pi/2) or
# |d| >= _C3. So as d falls the spin turns -1 below _C3, +1 at pi/2, -1 below -pi/2 and +1 at -_C3: it changes
# where d first falls below each of these four bounds.
_BOUNDS = (_C3, math.nextafter(math.pi / 2, math.inf), -math.pi / 2, math.nextafter(-_C3, math.inf))


def _cuts(a: float) -> list[int]:
    """Each k in (0, 2**53) where the spin along ``a`` (in [0, 2*pi), or nan) at the draw's value k * 2**-53
    differs from that at k - 1, in increasing order.

    The spin reads u only through d(k) = fl(a - fl(k * 2**-53 * 2*pi)), which lies in [a - 2*pi, a] and never
    increases with k; so each bound that d crosses gives one cut, found by one bisection over k. A nan ``a``
    crosses none.
    """
    cuts = []
    for t in _BOUNDS:
        lo, hi = 0, _K - 1
        if a >= t > a - hi * _U * TWO_PI:  # d(lo) >= t > d(hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if a - mid * _U * TWO_PI >= t else (lo, mid)
            cuts.append(hi)
    return cuts


def _stream(n: int, seed: int) -> np.random.Generator:
    """The first child stream of ``SeedSequence(seed)``, which each draw of ``n`` samples comes from."""
    if not 1 <= n <= tol.MAX_SPIN_SAMPLES:
        raise InvalidSampleCount(f"need from 1 to {tol.MAX_SPIN_SAMPLES} samples, got {_shown(n, str)}")
    if seed < 0:
        raise InvalidSeed(f"seed must be a non-negative integer, got {_shown(seed, str)}")
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def sample_phi(n: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-uniform samples of phi on [0, 2*pi): ``uniform(0, 2*pi, n)``.

    Drawn from the first child stream of ``SeedSequence(seed)``, so the
    result for a given (seed, n) pair is always the same.
    """
    phi = _stream(n, seed).random(n)
    phi *= TWO_PI  # 0 + 2*pi*u is 2*pi*u
    return phi


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
    sampled +1 marginals of both directions, all from one draw of ``n`` phi.

    Each spin is constant between the cuts of ``_cuts``, so the raw u are only counted below each cut, in blocks
    of ``_BLOCK``: the counts of ``spin_component`` on ``sample_phi(n, seed)``, bit for bit.
    """
    a, b = _angle(a), _angle(b)
    quantum = quantum_conditional(a, b)  # a nan angle is no state: the error comes before the draw, not after it
    edges = sorted({0, *_cuts(a), *_cuts(b)})
    rng, bounds, below = _stream(n, seed), [k * _U for k in edges[1:]], [0] * len(edges)
    u, mask = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK), dtype=bool)
    for start in range(0, n, u.size):
        block = rng.random(out=u[: n - start])
        for i, bound in enumerate(bounds, 1):
            below[i] += int(np.count_nonzero(np.less(block, bound, out=mask[: block.size])))
    counts = np.diff([*below, n])  # samples in each stretch [edges[i], edges[i + 1]) of k
    phi = np.array(edges) * _U * TWO_PI
    plus_a, plus_b = spin_component(a, phi) == 1, spin_component(b, phi) == 1
    count_a, count_b = int(counts[plus_a].sum()), int(counts[plus_b].sum())
    count_ab = int(counts[plus_a & plus_b].sum())
    if count_a == 0:
        raise DegenerateConditioning("no sample produced spin +1 along the first direction")
    analytic = classical_conditional_analytic(a, b)
    return SpinComparison(
        classical_estimate=count_ab / count_a,
        classical_analytic=analytic,
        quantum=quantum,
        gap=quantum - analytic,
        p_plus_a=count_a / n,
        p_plus_b=count_b / n,
    )
