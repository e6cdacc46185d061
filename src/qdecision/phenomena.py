"""Non-classical probability phenomena on states and projectors.

Quantifies conjunction effects, order effects, failures of the law of
total probability, and sure-thing violations, together with the commuting
(classical) baseline where all of them vanish.

Sequential semantics throughout: "first and then second" always means the
first projector is applied first, ``||P_2 P_1 psi||^2``. Quantum
conjunctions are order dependent, so nothing here is symmetrized silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .engine import (
    State,
    collapse_onto,
    event_probability,
    sequential_event_probability,
)
from .errors import DimensionMismatch, NotAPartition, ZeroProbabilityOutcome
from .linalg import Projector, StateVector
from .variables import DecisionVariable

__all__ = [
    "ConjunctionReport",
    "TotalProbabilityReport",
    "SureThingReport",
    "conjunction_report",
    "total_probability_report",
    "sure_thing_check",
    "commutation_defect",
    "scan_sure_thing_angles",
    "planar_state",
    "planar_projector",
]


def planar_state(angle_degrees: float) -> StateVector:
    """Real two-dimensional unit vector at the given angle."""
    t = np.deg2rad(angle_degrees)
    return StateVector([np.cos(t), np.sin(t)])


def planar_projector(angle_degrees: float) -> Projector:
    """Rank-one projector onto the plane direction at the given angle."""
    v = planar_state(angle_degrees).amplitudes
    return Projector(np.outer(v, v.conj()))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SureThingReport:
    condition_values: tuple[float, float]
    condition_probabilities: tuple[float, float]
    conditionals: tuple[float, float]
    p_unconditional: float
    threshold: float
    violation_flag: bool
    interference: float


def conjunction_report(psi: State, proj_a: Projector, proj_b: Projector) -> ConjunctionReport:
    """Marginals and both sequential conjunctions of two events."""
    p_a = event_probability(psi, proj_a)
    p_b = event_probability(psi, proj_b)
    p_ab = sequential_event_probability(psi, [proj_a, proj_b])
    p_ba = sequential_event_probability(psi, [proj_b, proj_a])
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
    terms = tuple(
        sequential_event_probability(psi, [p, proj_a]) for p in partition.eigenprojectors
    )
    p_via = float(sum(terms))
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
    """
    if len(condition.values) != 2:
        raise NotAPartition(
            f"sure-thing condition needs exactly two values, got {len(condition.values)}"
        )
    cond_probs = []
    conditionals = []
    for value, proj in zip(condition.values, condition.eigenprojectors):
        p_cond = event_probability(psi, proj)
        if p_cond <= tol.ZERO_PROB_TOL:
            raise ZeroProbabilityOutcome(
                f"condition outcome {value!r} has probability {p_cond:.3e}"
            )
        conditioned = collapse_onto(psi, proj)
        cond_probs.append(p_cond)
        conditionals.append(event_probability(conditioned, proj_c))
    report = total_probability_report(psi, condition, proj_c)
    p_unconditional = report.p_direct
    return SureThingReport(
        condition_values=(condition.values[0], condition.values[1]),
        condition_probabilities=(cond_probs[0], cond_probs[1]),
        conditionals=(conditionals[0], conditionals[1]),
        p_unconditional=p_unconditional,
        threshold=float(threshold),
        violation_flag=min(conditionals) > threshold and p_unconditional <= threshold,
        interference=report.interference,
    )


def commutation_defect(proj_a: Projector, proj_b: Projector) -> float:
    """Frobenius norm of the commutator; zero iff order never matters."""
    if proj_a.dim != proj_b.dim:
        raise DimensionMismatch(f"dimensions differ: {proj_a.dim} vs {proj_b.dim}")
    a, b = proj_a.matrix, proj_b.matrix
    return float(np.linalg.norm(a @ b - b @ a, "fro"))


def scan_sure_thing_angles(
    threshold: float = 0.45,
    step_degrees: float = 1.0,
) -> tuple[float, float, float] | None:
    """Grid scan for a planar sure-thing violation at the given threshold.

    Scans (state angle, condition angle, choice angle) on a regular grid
    over [0, 180) degrees and returns the first configuration whose
    ``sure_thing_check`` flag is set, or None. The grid is filtered with
    closed-form overlaps first, then every candidate is confirmed through
    the engine before being returned, so a non-None result is a verified
    witness.

    With a rank-one binary condition the two conditionals always sum to 1,
    so no strict threshold >= 0.5 is attainable in dimension two; use
    thresholds below 0.5 to find witnesses.
    """
    angles = np.arange(0.0, 180.0, step_degrees)
    rad = np.deg2rad(angles)
    # conditionals depend only on (choice - condition); unconditional on (choice - state)
    for s_idx, s in enumerate(rad):
        p_uncond = np.cos(rad - s) ** 2  # over choice angles
        for x_idx, x in enumerate(rad):
            cond_overlap = np.cos(rad - x) ** 2  # over choice angles
            ok = (np.minimum(cond_overlap, 1.0 - cond_overlap) > threshold) & (
                p_uncond <= threshold
            )
            hits = np.flatnonzero(ok)
            for c_idx in hits:
                config = (float(angles[s_idx]), float(angles[x_idx]), float(angles[c_idx]))
                if _confirm_sure_thing(config, threshold):
                    return config
    return None


def _confirm_sure_thing(config: tuple[float, float, float], threshold: float) -> bool:
    state_angle, condition_angle, choice_angle = config
    psi = planar_state(state_angle)
    condition = DecisionVariable(
        "condition",
        (0.0, 1.0),
        [planar_projector(condition_angle + 90.0), planar_projector(condition_angle)],
    )
    report = sure_thing_check(psi, condition, planar_projector(choice_angle), threshold)
    return report.violation_flag
