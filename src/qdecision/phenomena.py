"""Non-classical probability phenomena on states and projectors.

Quantifies conjunction effects, order effects, failures of the law of
total probability, and sure-thing violations; all of them vanish when the
events commute (the classical baseline).

Sequential semantics throughout: "first and then second" always means the
first projector is applied first, ``||P_2 P_1 psi||^2``. Quantum
conjunctions are order dependent, so nothing here is symmetrized silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .engine import State, _chain, _event, event_probability
from .errors import InvariantViolation, NotAPartition, ZeroProbabilityOutcome, _shown
from .linalg import Projector, StateVector, _real
from .variables import DecisionVariable

__all__ = [
    "ConjunctionReport",
    "TotalProbabilityReport",
    "SureThingReport",
    "conjunction_report",
    "total_probability_report",
    "sure_thing_check",
    "planar_state",
    "planar_projector",
]


def planar_state(angle_degrees: float) -> StateVector:
    """Real two-dimensional unit vector at the given angle; a nan or infinite angle raises ``InvariantViolation``."""
    t = np.deg2rad(_real(angle_degrees))
    if not np.isfinite(t):  # before cos, which warns on inf
        raise InvariantViolation(f"plane angle {_shown(angle_degrees)} is not finite")
    return StateVector([np.cos(t), np.sin(t)])


def planar_projector(angle_degrees: float) -> Projector:
    """Rank-one projector onto the plane direction at the given angle."""
    v = planar_state(angle_degrees).amplitudes
    return Projector(np.outer(v, v.conj()))


# Each report's __init__ fills the instance dict in one write: the generated one sets each field past the frozen check.
@dataclass(frozen=True, init=False)
class ConjunctionReport:
    """Both orders of a two-event conjunction next to the marginals.

    ``conjunction_flag`` is set when P(A then B) exceeds the marginal P(B),
    which no classical joint distribution allows.
    """

    p_a: float
    p_b: float
    p_a_then_b: float
    p_b_then_a: float
    conjunction_flag: bool
    order_asymmetry: float

    def __init__(self, p_a, p_b, p_a_then_b, p_b_then_a, conjunction_flag, order_asymmetry):
        self.__dict__.update(p_a=p_a, p_b=p_b, p_a_then_b=p_a_then_b, p_b_then_a=p_b_then_a,
                             conjunction_flag=conjunction_flag, order_asymmetry=order_asymmetry)


@dataclass(frozen=True, init=False)
class TotalProbabilityReport:
    """Direct event probability against the partition-first route.

    ``interference`` is the exact difference ``p_direct - p_via_partition``;
    it equals the sum of the cross terms between the partitioned amplitudes
    and vanishes whenever the event commutes with the partition.
    """

    p_direct: float
    p_via_partition: float
    interference: float
    partition_values: tuple[float, ...]
    partition_terms: tuple[float, ...]

    def __init__(self, p_direct, p_via_partition, interference, partition_values, partition_terms):
        self.__dict__.update(p_direct=p_direct, p_via_partition=p_via_partition, interference=interference,
                             partition_values=partition_values, partition_terms=partition_terms)


@dataclass(frozen=True, init=False)
class SureThingReport:
    condition_values: tuple[float, float]
    conditionals: tuple[float, float]
    p_unconditional: float
    violation_flag: bool
    interference: float

    def __init__(self, condition_values, conditionals, p_unconditional, violation_flag, interference):
        self.__dict__.update(condition_values=condition_values, conditionals=conditionals,
                             p_unconditional=p_unconditional, violation_flag=violation_flag, interference=interference)


def conjunction_report(psi: State, proj_a: Projector, proj_b: Projector) -> ConjunctionReport:
    """Marginals and both sequential conjunctions of two events, each projected state formed once."""
    a, p_a = _event(psi, proj_a)
    b, p_b = _event(psi, proj_b)
    p_ab = _chain(a, (proj_b,))[1]
    p_ba = _chain(b, (proj_a,))[1]
    return ConjunctionReport(
        p_a=p_a,
        p_b=p_b,
        p_a_then_b=p_ab,
        p_b_then_a=p_ba,
        conjunction_flag=p_ab > p_b + tol.PROB_FLOOR,
        order_asymmetry=abs(p_ab - p_ba),
    )


def total_probability_report(
    psi: State,
    partition: DecisionVariable,
    proj_a: Projector,
) -> TotalProbabilityReport:
    """Compare P(A) with measuring the partition first and then A.

    The partition is measured first: ``p_via_partition = sum_j ||P_A P_j psi||^2``.
    """
    p_direct = event_probability(psi, proj_a)
    terms = tuple(_chain(psi, (p, proj_a))[1] for p in partition.eigenprojectors)
    p_via = sum(terms)
    return TotalProbabilityReport(
        p_direct=p_direct,
        p_via_partition=p_via,
        interference=p_direct - p_via,
        partition_values=partition.values,
        partition_terms=terms,
    )


def sure_thing_check(
    psi: State,
    condition: DecisionVariable,
    proj_c: Projector,
    threshold: float = 0.5,
) -> SureThingReport:
    """Test the sure-thing pattern against a binary condition.

    Classically, if the choice is likely (> threshold) under the condition
    and under its complement, it is likely unconditionally. The flag is set
    when both conditionals exceed ``threshold`` yet the unconditional
    probability does not, which requires nonzero interference.

    Each conditional is the Lüders-rule ratio ``||P_c P_j psi||^2 / ||P_j psi||^2``
    (``trace(P_c P_j rho P_j) / trace(P_j rho)`` for a density): a partition term
    of ``total_probability_report`` over p_j, which must exceed ``ZERO_PROB_TOL``.
    Each projected state ``P_j psi`` is formed once, for both.
    """
    if len(condition.values) != 2:
        raise NotAPartition(
            f"sure-thing condition needs exactly two values, got {len(condition.values)}"
        )
    events = [_event(psi, proj) for proj in condition.eigenprojectors]
    for value, (_, p_cond) in zip(condition.values, events):
        if p_cond <= tol.ZERO_PROB_TOL:
            raise ZeroProbabilityOutcome(f"condition outcome {value!r} has probability {p_cond:.3e}")
    p_unconditional = event_probability(psi, proj_c)
    terms = [_chain(image, (proj_c,))[1] for image, _ in events]
    conditionals = tuple(term / p for term, (_, p) in zip(terms, events))
    return SureThingReport(
        condition_values=condition.values,
        conditionals=conditionals,
        p_unconditional=p_unconditional,
        violation_flag=min(conditionals) > threshold and p_unconditional <= threshold,
        interference=p_unconditional - sum(terms),
    )
