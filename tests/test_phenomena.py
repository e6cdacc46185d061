"""Conjunction, order, total-probability and sure-thing phenomena."""

import numpy as np
import pytest

from qdecision import (
    NotAPartition,
    Projector,
    StateVector,
    ZeroProbabilityOutcome,
    conjunction_report,
    planar_projector,
    planar_state,
    sure_thing_check,
    total_probability_report,
    variable_from_spectrum,
)

from conftest import commuting_setup, random_state, random_unitary, rng_for

# frozen from the explicit 2x2 oracle: cos/sin arithmetic on angles 40/70
P_A = 0.5868240888334649
P_B = 0.11697777844051105
P_A_THEN_B = 0.4401180666250989
P_B_THEN_A = 0.08773333383038327
ORDER_ASYMMETRY = 0.3523847327947156
INTERFERENCE = 0.27833519961320957


def two_angle_variable(name, low_angle, high_angle):
    """Binary planar variable: value 0 at low_angle, value 1 at high_angle."""
    return variable_from_spectrum(
        name,
        [0.0, 1.0],
        [[planar_state(low_angle).amplitudes], [planar_state(high_angle).amplitudes]],
    )


# ---------------------------------------------------------------------------
# conjunction reports


def test_conjunction_medical_numbers():
    psi = StateVector([1.0, 0.0])
    rep = conjunction_report(psi, planar_projector(40.0), planar_projector(70.0))
    assert rep.p_a == pytest.approx(P_A, abs=1e-12)
    assert rep.p_b == pytest.approx(P_B, abs=1e-12)
    assert rep.p_a_then_b == pytest.approx(P_A_THEN_B, abs=1e-12)
    assert rep.p_b_then_a == pytest.approx(P_B_THEN_A, abs=1e-12)
    assert rep.order_asymmetry == pytest.approx(ORDER_ASYMMETRY, abs=1e-12)
    assert rep.conjunction_flag
    # against the six-figure published values
    for got, expected in [
        (rep.p_a, 0.586824),
        (rep.p_b, 0.116978),
        (rep.p_a_then_b, 0.440118),
        (rep.p_b_then_a, 0.087734),
        (rep.order_asymmetry, 0.352384),
    ]:
        assert abs(got - expected) < 1e-6


def test_conjunction_commuting_case_is_classical():
    rng = rng_for(70)
    for _ in range(20):
        r = int(rng.integers(2, 6))
        proj_a, proj_b, _ = commuting_setup(r, rng)
        psi = random_state(r, rng)
        rep = conjunction_report(psi, proj_a, proj_b)
        assert rep.order_asymmetry <= 1e-12
        assert rep.p_a_then_b <= min(rep.p_a, rep.p_b) + 1e-12
        assert not rep.conjunction_flag


def test_conjunction_with_certain_second_event():
    psi = StateVector([1.0, 0.0])
    rep = conjunction_report(psi, planar_projector(40.0), Projector(np.eye(2)))
    assert rep.p_b == pytest.approx(1.0, abs=1e-12)
    assert rep.p_a_then_b == pytest.approx(rep.p_a, abs=1e-12)
    assert not rep.conjunction_flag


def test_conjunction_probabilities_never_exceed_first_marginal():
    rng = rng_for(71)
    for _ in range(30):
        psi = random_state(2, rng)
        rep = conjunction_report(
            psi,
            planar_projector(float(rng.uniform(0, 180))),
            planar_projector(float(rng.uniform(0, 180))),
        )
        assert rep.p_a_then_b <= rep.p_a + 1e-12
        assert rep.p_b_then_a <= rep.p_b + 1e-12


# ---------------------------------------------------------------------------
# total probability


def test_total_probability_medical_numbers():
    psi = StateVector([1.0, 0.0])
    partition = two_angle_variable("b", 160.0, 70.0)
    rep = total_probability_report(psi, partition, planar_projector(40.0))
    assert rep.p_direct == pytest.approx(P_A, abs=1e-12)
    assert rep.p_via_partition == pytest.approx(0.30848888922025536, abs=1e-12)
    assert rep.interference == pytest.approx(INTERFERENCE, abs=1e-12)
    assert abs(rep.interference - 0.278335) < 1e-6
    terms = dict(zip(rep.partition_values, rep.partition_terms))
    assert terms[1.0] == pytest.approx(0.08773333383038327, abs=1e-12)
    assert terms[0.0] == pytest.approx(0.22075555538987207, abs=1e-12)


def test_total_probability_commuting_case_has_no_interference():
    rng = rng_for(72)
    for _ in range(20):
        r = int(rng.integers(2, 6))
        proj_a, _, condition = commuting_setup(r, rng)
        psi = random_state(r, rng)
        rep = total_probability_report(psi, condition, proj_a)
        assert abs(rep.interference) <= 1e-12


def test_total_probability_with_certain_event():
    psi = planar_state(25.0)
    partition = two_angle_variable("b", 160.0, 70.0)
    rep = total_probability_report(psi, partition, Projector(np.eye(2)))
    assert rep.p_via_partition == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.interference) <= 1e-12


def test_interference_matches_cross_amplitudes():
    # oracle: 2 Re sum_{j<k} <P_A P_j psi, P_A P_k psi>
    rng = rng_for(73)
    for _ in range(25):
        r = int(rng.integers(2, 5))
        psi = random_state(r, rng)
        u = random_unitary(r, rng)
        split = int(rng.integers(1, r))
        partition = variable_from_spectrum(
            "p", [0.0, 1.0], [[u[:, j] for j in range(split)], [u[:, j] for j in range(split, r)]]
        )
        direction = random_state(r, rng).amplitudes
        proj_a = Projector(np.outer(direction, direction.conj()))
        rep = total_probability_report(psi, partition, proj_a)
        branches = [
            proj_a.matrix @ p.matrix @ psi.amplitudes for p in partition.eigenprojectors
        ]
        cross = 0.0
        for j in range(len(branches)):
            for k in range(j + 1, len(branches)):
                cross += 2.0 * np.vdot(branches[j], branches[k]).real
        assert rep.interference == pytest.approx(cross, abs=1e-10)
        assert rep.p_direct - rep.p_via_partition - rep.interference == 0.0


# ---------------------------------------------------------------------------
# sure thing


def test_sure_thing_at_threshold_035():
    # oracle: conditional chain arithmetic, cos^2(30) and cos^2(120)
    psi = StateVector([1.0, 0.0])
    condition = two_angle_variable("cond", 160.0, 70.0)
    rep = sure_thing_check(psi, condition, planar_projector(40.0), threshold=0.35)
    conditionals = dict(zip(rep.condition_values, rep.conditionals))
    assert conditionals[1.0] == pytest.approx(0.75, abs=1e-12)
    assert conditionals[0.0] == pytest.approx(0.25, abs=1e-12)
    assert min(rep.conditionals) <= 0.35
    assert not rep.violation_flag
    assert rep.interference == pytest.approx(INTERFERENCE, abs=1e-12)


def test_sure_thing_commuting_case_never_flags():
    rng = rng_for(74)
    for _ in range(20):
        r = int(rng.integers(2, 6))
        proj_a, _, condition = commuting_setup(r, rng)
        psi = random_state(r, rng)
        try:
            rep = sure_thing_check(psi, condition, proj_a)
        except ZeroProbabilityOutcome:
            continue
        assert not rep.violation_flag


def test_sure_thing_requires_binary_condition():
    psi = StateVector([1.0, 0.0, 0.0])
    eye = np.eye(3)
    ternary = variable_from_spectrum(
        "t", [0.0, 1.0, 2.0], [[eye[:, 0]], [eye[:, 1]], [eye[:, 2]]]
    )
    with pytest.raises(NotAPartition):
        sure_thing_check(psi, ternary, Projector(np.eye(3)))


def test_sure_thing_zero_probability_condition():
    psi = StateVector([1.0, 0.0])
    condition = two_angle_variable("cond", 90.0, 0.0)
    with pytest.raises(ZeroProbabilityOutcome):
        sure_thing_check(psi, condition, planar_projector(40.0))


def test_scan_finds_verified_witness_below_half():
    # the first hit of a 1-degree grid scan over (state, condition, choice) angles
    state_angle, condition_angle, choice_angle = 0.0, 1.0, 48.0
    # independent confirmation with explicit trig
    d = np.deg2rad(choice_angle - condition_angle)
    conditionals = (np.cos(d) ** 2, np.sin(d) ** 2)
    p_uncond = np.cos(np.deg2rad(choice_angle - state_angle)) ** 2
    assert min(conditionals) > 0.45
    assert p_uncond <= 0.45
    # and through the engine
    psi = planar_state(state_angle)
    condition = two_angle_variable("cond", condition_angle + 90.0, condition_angle)
    rep = sure_thing_check(psi, condition, planar_projector(choice_angle), 0.45)
    assert rep.violation_flag


# ---------------------------------------------------------------------------
# order effects


def test_zero_defect_means_no_order_effect_anywhere():
    rng = rng_for(76)
    pa, pb, _ = commuting_setup(4, rng)
    for _ in range(50):
        psi = random_state(4, rng)
        rep = conjunction_report(psi, pa, pb)
        assert rep.order_asymmetry <= 1e-10


def test_nonzero_defect_shows_an_order_effect_somewhere():
    pa, pb = planar_projector(40.0), planar_projector(70.0)
    rng = rng_for(77)
    asymmetries = [
        conjunction_report(random_state(2, rng), pa, pb).order_asymmetry
        for _ in range(50)
    ]
    assert max(asymmetries) > 1e-3


# ---------------------------------------------------------------------------
# product spaces


def test_product_state_has_no_cross_effects():
    rng = rng_for(78)
    psi_a, psi_b = random_state(2, rng), random_state(2, rng)
    joint = StateVector(np.kron(psi_a.amplitudes, psi_b.amplitudes))
    event_a, event_b = random_state(2, rng), random_state(2, rng)
    proj_a = Projector(
        np.kron(np.outer(event_a.amplitudes, event_a.amplitudes.conj()), np.eye(2))
    )
    proj_b = Projector(
        np.kron(np.eye(2), np.outer(event_b.amplitudes, event_b.amplitudes.conj()))
    )
    rep = conjunction_report(joint, proj_a, proj_b)
    assert rep.order_asymmetry <= 1e-12
    assert rep.p_a_then_b == pytest.approx(rep.p_a * rep.p_b, abs=1e-12)
    assert not rep.conjunction_flag
