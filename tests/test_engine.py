"""Born engine: probabilities, collapse, chains, effects, reconstruction."""

import numpy as np
import pytest

from qdecision import (
    DensityOperator,
    DimensionMismatch,
    Effect,
    GPMSample,
    HermitianOperator,
    InconsistentSamples,
    InsufficientSpan,
    InvalidEffect,
    InvariantViolation,
    LikelihoodTable,
    StateVector,
    UnknownDataLabel,
    UnknownValue,
    ZeroProbabilityOutcome,
    collapse,
    expectation,
    expectation_of_function,
    gpm_evaluate,
    ic_effect_basis,
    likelihood_effect,
    outcome_distribution,
    reconstruct_density,
    sequential_probability,
    transition_probability,
    variable_from_spectrum,
)
from qdecision import engine

from conftest import random_density, random_maximal_variable, random_state, rng_for


def planar_vector(deg):
    t = np.deg2rad(deg)
    return np.array([np.cos(t), np.sin(t)])


def planar_variable(name, values, angles_deg):
    return variable_from_spectrum(
        name, values, [[planar_vector(a)] for a in angles_deg]
    )


# ---------------------------------------------------------------------------
# transition probabilities


def test_transition_to_itself_is_one():
    rng = rng_for(50)
    psi = random_state(4, rng)
    assert transition_probability(psi, psi) == pytest.approx(1.0, abs=1e-12)


def test_transition_between_orthogonal_states_is_zero():
    a = StateVector([1.0, 0.0])
    b = StateVector([0.0, 1.0])
    assert transition_probability(a, b) == pytest.approx(0.0, abs=1e-15)


def test_transition_at_bloch_angle_60():
    # oracle: explicit qubit eigenvectors (cos(d/2), sin(d/2))
    half = np.deg2rad(30.0)
    up_a = StateVector([1.0, 0.0])
    up_b = StateVector([np.cos(half), np.sin(half)])
    oracle = float(np.cos(half)) ** 2
    assert oracle == pytest.approx(0.75, abs=1e-12)
    assert transition_probability(up_a, up_b) == pytest.approx(oracle, abs=1e-12)


def test_transition_is_symmetric():
    rng = rng_for(51)
    a, b = random_state(5, rng), random_state(5, rng)
    assert transition_probability(a, b) == pytest.approx(
        transition_probability(b, a), abs=1e-14
    )


def test_transition_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        transition_probability(StateVector([1.0, 0.0]), StateVector([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# outcome distributions


def test_eigenstate_gives_point_mass():
    v = planar_variable("v", [0.0, 1.0], [70.0, 160.0])
    psi = StateVector(planar_vector(160.0))
    dist = outcome_distribution(psi, v)
    assert dist.probability_of(1.0) == pytest.approx(1.0, abs=1e-12)
    assert dist.probability_of(0.0) == pytest.approx(0.0, abs=1e-12)


def test_an_unknown_outcome_value_has_no_probability():
    dist = outcome_distribution(StateVector([1.0, 0.0]), planar_variable("v", [0.0, 1.0], [70.0, 160.0]))
    with pytest.raises(UnknownValue, match="^2.0 is not among the outcome values$"):
        dist.probability_of(2.0)


def test_maximally_mixed_state_is_uniform():
    rng = rng_for(52)
    for r in (2, 3, 5):
        v = random_maximal_variable(r, rng)
        rho = DensityOperator(np.eye(r) / r)
        dist = outcome_distribution(rho, v)
        assert np.allclose(dist.probabilities, [1.0 / r] * r, atol=1e-12)


def test_planar_distribution_at_70_160():
    # oracle: direct 2x2 arithmetic, p_j = cos^2 of the angle to psi
    psi = StateVector([1.0, 0.0])
    v = planar_variable("v", [0.0, 1.0], [70.0, 160.0])
    p70 = float(np.cos(np.deg2rad(70.0)) ** 2)
    p160 = float(np.cos(np.deg2rad(160.0)) ** 2)
    assert abs(p70 - 0.116978) < 1e-6 and abs(p160 - 0.883022) < 1e-6
    dist = outcome_distribution(psi, v)
    assert dist.probability_of(0.0) == pytest.approx(p70, abs=1e-12)
    assert dist.probability_of(1.0) == pytest.approx(p160, abs=1e-12)


def test_distributions_normalize():
    rng = rng_for(53)
    for r in (2, 3, 5, 8):
        for _ in range(25):
            v = random_maximal_variable(r, rng)
            psi = random_state(r, rng)
            assert sum(outcome_distribution(psi, v).probabilities) == pytest.approx(
                1.0, abs=1e-10
            )


# ---------------------------------------------------------------------------
# collapse


def test_collapse_of_eigenstate_is_identity_up_to_phase():
    v = planar_variable("v", [0.0, 1.0], [70.0, 160.0])
    psi = StateVector(planar_vector(70.0))
    post = collapse(psi, v, 0.0)
    assert transition_probability(psi, post) == pytest.approx(1.0, abs=1e-12)


def test_collapse_onto_40_degrees():
    # oracle: normalize P psi by hand
    psi = StateVector([1.0, 0.0])
    v = planar_variable("v", [0.0, 1.0], [40.0, 130.0])
    post = collapse(psi, v, 0.0)
    u = planar_vector(40.0)
    by_hand = (np.outer(u, u) @ psi.amplitudes)
    by_hand = by_hand / np.linalg.norm(by_hand)
    assert transition_probability(post, StateVector(by_hand)) == pytest.approx(1.0, abs=1e-12)


def test_collapse_on_rank_two_projector_deletes_components():
    eye = np.eye(3)
    v = variable_from_spectrum("v", [0.0, 1.0], [[eye[:, 0], eye[:, 1]], [eye[:, 2]]])
    amps = np.array([0.6, 0.48j, 0.64])
    psi = StateVector(amps / np.linalg.norm(amps))
    post = collapse(psi, v, 0.0)
    kept = np.array([amps[0], amps[1], 0.0])
    kept = kept / np.linalg.norm(kept)
    assert transition_probability(post, StateVector(kept)) == pytest.approx(1.0, abs=1e-12)


def test_collapse_repeat_measurement_is_certain():
    rng = rng_for(54)
    for _ in range(20):
        v = random_maximal_variable(4, rng)
        psi = random_state(4, rng)
        value = v.values[int(rng.integers(0, 4))]
        post = collapse(psi, v, value)
        assert outcome_distribution(post, v).probability_of(value) == pytest.approx(
            1.0, abs=1e-12
        )


def test_collapse_on_null_event_raises():
    v = planar_variable("v", [0.0, 1.0], [0.0, 90.0])
    psi = StateVector([1.0, 0.0])
    with pytest.raises(ZeroProbabilityOutcome):
        collapse(psi, v, 1.0)


def test_collapse_unknown_value_raises():
    v = planar_variable("v", [0.0, 1.0], [0.0, 90.0])
    with pytest.raises(UnknownValue):
        collapse(StateVector([1.0, 0.0]), v, 7.0)


# ---------------------------------------------------------------------------
# sequential chains


def test_single_step_chain_equals_distribution_entry():
    rng = rng_for(55)
    v = random_maximal_variable(3, rng)
    psi = random_state(3, rng)
    for u in v.values:
        assert sequential_probability(psi, [(v, u)]) == pytest.approx(
            outcome_distribution(psi, v).probability_of(u), abs=1e-12
        )


def test_chain_40_then_70():
    # oracle: explicit 2x2 products
    psi = StateVector([1.0, 0.0])
    a = planar_variable("a", [0.0, 1.0], [130.0, 40.0])
    b = planar_variable("b", [0.0, 1.0], [160.0, 70.0])
    oracle_ab = float(np.cos(np.deg2rad(40.0)) ** 2 * np.cos(np.deg2rad(30.0)) ** 2)
    oracle_ba = float(np.cos(np.deg2rad(70.0)) ** 2 * np.cos(np.deg2rad(30.0)) ** 2)
    assert abs(oracle_ab - 0.440118) < 1e-6
    assert abs(oracle_ba - 0.087734) < 1e-6
    assert sequential_probability(psi, [(a, 1.0), (b, 1.0)]) == pytest.approx(oracle_ab, abs=1e-12)
    assert sequential_probability(psi, [(b, 1.0), (a, 1.0)]) == pytest.approx(oracle_ba, abs=1e-12)


def test_zero_probability_chain_is_a_valid_result():
    v = planar_variable("v", [0.0, 1.0], [0.0, 90.0])
    psi = StateVector([1.0, 0.0])
    assert sequential_probability(psi, [(v, 1.0), (v, 0.0)]) == pytest.approx(0.0, abs=1e-15)


def test_chain_matches_telescoped_collapses():
    rng = rng_for(56)
    for _ in range(25):
        r = int(rng.integers(2, 6))
        psi = random_state(r, rng)
        length = int(rng.integers(1, 5))
        steps = []
        for _ in range(length):
            v = random_maximal_variable(r, rng)
            steps.append((v, v.values[int(rng.integers(0, r))]))
        chained = sequential_probability(psi, steps)
        product, state = 1.0, psi
        for v, u in steps:
            p = outcome_distribution(state, v).probability_of(u)
            product *= p
            if p <= 1e-12:
                product = 0.0
                break
            state = collapse(state, v, u)
        assert chained == pytest.approx(product, abs=1e-10)


# ---------------------------------------------------------------------------
# expectations


def test_expectation_of_eigenstate_is_its_value():
    v = planar_variable("v", [-2.0, 5.0], [25.0, 115.0])
    psi = StateVector(planar_vector(115.0))
    assert expectation(psi, v) == pytest.approx(5.0, abs=1e-10)


def test_expectation_of_maximally_mixed_spin():
    v = planar_variable("v", [-1.0, 1.0], [0.0, 90.0])
    rho = DensityOperator(np.eye(2) / 2.0)
    assert expectation(rho, v) == pytest.approx(0.0, abs=1e-12)


def test_expectation_at_70_160():
    # oracle: sum u_j p_j from the outcome distribution example
    psi = StateVector([1.0, 0.0])
    v = planar_variable("v", [0.0, 1.0], [70.0, 160.0])
    oracle = 0.0 * np.cos(np.deg2rad(70.0)) ** 2 + 1.0 * np.cos(np.deg2rad(160.0)) ** 2
    assert abs(oracle - 0.883022) < 1e-6
    assert expectation(psi, v) == pytest.approx(float(oracle), abs=1e-10)


def test_expectation_consistency_invariants():
    rng = rng_for(57)
    for r in (2, 3, 5):
        v = random_maximal_variable(r, rng)
        psi = random_state(r, rng)
        dist = outcome_distribution(psi, v)
        by_sum = sum(u * p for u, p in zip(dist.values, dist.probabilities))
        assert abs(expectation(psi, v) - by_sum) <= 1e-10

        rho = DensityOperator(random_density(r, rng))
        f = lambda x: np.cos(x) + x * x
        dist_rho = outcome_distribution(rho, v)
        f_by_sum = sum(f(u) * p for u, p in zip(dist_rho.values, dist_rho.probabilities))
        assert abs(expectation_of_function(rho, v, f) - f_by_sum) <= 1e-10


def test_expectation_of_function_special_cases():
    rng = rng_for(58)
    v = random_maximal_variable(3, rng)
    rho = DensityOperator(random_density(3, rng))
    assert expectation_of_function(rho, v, lambda u: u) == pytest.approx(
        expectation(rho, v), abs=1e-10
    )
    assert expectation_of_function(rho, v, lambda u: 4.25) == pytest.approx(4.25, abs=1e-10)


def test_indicator_function_recovers_born_probability():
    rng = rng_for(59)
    v = random_maximal_variable(3, rng)
    rho = DensityOperator(random_density(3, rng))
    dist = outcome_distribution(rho, v)
    for u in v.values:
        indicator = lambda x, u=u: 1.0 if abs(x - u) < 1e-9 else 0.0
        assert expectation_of_function(rho, v, indicator) == pytest.approx(
            dist.probability_of(u), abs=1e-10
        )


def test_expectation_of_function_takes_a_table_keyed_by_the_declared_values():
    v = planar_variable("v", [0.1, 0.7], [20.0, 110.0])
    psi = StateVector(planar_vector(50.0))
    dist = outcome_distribution(psi, v)
    table = {0.1: 3.0, 0.7: -1.5}
    want = 3.0 * dist.probability_of(0.1) - 1.5 * dist.probability_of(0.7)
    assert expectation_of_function(psi, v, table) == pytest.approx(want, abs=1e-12)
    with pytest.raises(InvariantViolation):
        expectation_of_function(psi, v, {0.1: 3.0})
    # keys match the declared values at VALUE_SIG_DIGITS significant digits
    assert expectation_of_function(psi, v, {0.1 + 1e-14: 3.0, 0.7: -1.5}) == pytest.approx(want, abs=1e-12)
    with pytest.raises(InvariantViolation, match="no entry for 0.1$"):
        expectation_of_function(psi, v, {0.1 + 1e-11: 3.0, 0.7: -1.5})


@pytest.mark.parametrize(
    "f",
    [
        lambda u: float("nan"),
        lambda u: float("inf") if u > 0.5 else 0.0,
        # finite, but f(A) + f(A)^dag overflows, as it did in the operator the parent built
        lambda u: 1e308,
    ],
    ids=["nan", "inf", "overflow"],
)
def test_expectation_of_function_rejects_a_non_finite_operator(f):
    v = planar_variable("v", [0.0, 1.0], [20.0, 110.0])
    psi = StateVector(planar_vector(50.0))
    with pytest.raises(InvariantViolation):
        expectation_of_function(psi, v, f)


# ---------------------------------------------------------------------------
# likelihood effects


def test_event_probability_takes_a_raw_effect_matrix():
    psi = StateVector([1.0, 0.0])
    assert engine.event_probability(psi, np.eye(2) / 2) == gpm_evaluate(psi, np.eye(2) / 2) == 0.5
    assert engine.event_probability(psi, [[1.0, 0.0], [0.0, 0.0]]) == 1.0
    with pytest.raises(InvalidEffect):
        engine.event_probability(psi, np.diag([1.5, 0.0]))


@pytest.mark.parametrize("evaluate", [engine.event_probability, gpm_evaluate], ids=["event_probability", "gpm_evaluate"])
def test_a_typed_operator_that_is_no_effect_is_rejected(evaluate):
    psi = StateVector([1.0, 0.0])
    with pytest.raises(InvalidEffect, match=r"^effect spectrum \[-1.000e\+00, 2.000e\+00\] is not within \[0, 1\]$"):
        evaluate(psi, HermitianOperator(np.diag([2.0, -1.0])))
    assert evaluate(psi, DensityOperator(np.diag([0.25, 0.75]))) == 0.25  # no Effect, but its spectrum is in [0, 1]


def test_deterministic_likelihood_gives_eigenprojectors():
    v = planar_variable("v", [0.0, 1.0], [10.0, 100.0])
    table = LikelihoodTable(v, {"z0": [1.0, 0.0], "z1": [0.0, 1.0]})
    f0 = likelihood_effect(table, "z0")
    assert np.linalg.norm(f0.matrix - v.eigenprojectors[0].matrix, "fro") <= 1e-12


def test_likelihood_effect_on_diagonal_basis():
    eye = np.eye(2)
    v = variable_from_spectrum("v", [0.0, 1.0], [[eye[:, 0]], [eye[:, 1]]])
    table = LikelihoodTable(v, {"1": [0.9, 0.2], "0": [0.1, 0.8]})
    f1 = likelihood_effect(table, "1")
    assert np.allclose(f1.matrix, np.diag([0.9, 0.2]), atol=1e-12)


def test_likelihood_effects_complete_to_identity():
    rng = rng_for(60)
    for _ in range(10):
        r = int(rng.integers(2, 5))
        v = random_maximal_variable(r, rng)
        raw = rng.uniform(0.1, 1.0, size=(3, r))
        raw /= raw.sum(axis=0)
        table = LikelihoodTable(v, {f"z{i}": raw[i] for i in range(3)})
        total = sum(likelihood_effect(table, z).matrix for z in table.entries)
        assert np.linalg.norm(total - np.eye(r), "fro") <= 1e-10


def test_likelihood_effect_on_degenerate_variable_uses_eigenspaces():
    eye = np.eye(3)
    v = variable_from_spectrum("v", [0.0, 1.0], [[eye[:, 0], eye[:, 1]], [eye[:, 2]]])
    table = LikelihoodTable(v, {"yes": [0.7, 0.4], "no": [0.3, 0.6]})
    f = likelihood_effect(table, "yes")
    assert np.allclose(f.matrix, np.diag([0.7, 0.7, 0.4]), atol=1e-12)


def test_likelihood_table_validation():
    v = planar_variable("v", [0.0, 1.0], [0.0, 90.0])
    with pytest.raises(InvariantViolation):
        LikelihoodTable(v, {"a": [0.9, 0.5], "b": [0.2, 0.5]})  # column 0 sums to 1.1
    with pytest.raises(InvariantViolation):
        LikelihoodTable(v, {"a": [1.2, 0.5], "b": [-0.2, 0.5]})
    with pytest.raises(DimensionMismatch):
        LikelihoodTable(v, {"a": [1.0]})
    with pytest.raises(InvariantViolation, match="^likelihood table has no data labels$"):
        LikelihoodTable(v, {})


def test_unknown_data_label():
    v = planar_variable("v", [0.0, 1.0], [0.0, 90.0])
    table = LikelihoodTable(v, {"a": [1.0, 0.3], "b": [0.0, 0.7]})
    with pytest.raises(UnknownDataLabel):
        likelihood_effect(table, "c")


# ---------------------------------------------------------------------------
# generalized probability measures


def test_gpm_of_identity_is_one():
    rng = rng_for(61)
    rho = DensityOperator(random_density(4, rng))
    assert gpm_evaluate(rho, np.eye(4)) == pytest.approx(1.0, abs=1e-12)


def test_gpm_maximally_mixed_rank_one():
    rho = DensityOperator(np.eye(2) / 2.0)
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert gpm_evaluate(rho, proj) == pytest.approx(0.5, abs=1e-13)


def test_gpm_hand_trace():
    # oracle: trace by hand, 0.5 * 0.9 + 0.5 * 0.2
    rho = DensityOperator(np.diag([0.5, 0.5]))
    assert gpm_evaluate(rho, np.diag([0.9, 0.2])) == pytest.approx(0.55, abs=1e-13)


def test_gpm_rejects_invalid_effect():
    rho = DensityOperator(np.eye(2) / 2.0)
    with pytest.raises(InvalidEffect):
        gpm_evaluate(rho, np.diag([1.5, 0.0]))


def test_gpm_additivity():
    rng = rng_for(62)
    from conftest import random_unitary

    for _ in range(200):
        r = int(rng.integers(2, 5))
        rho = DensityOperator(random_density(r, rng))
        u = random_unitary(r, rng)
        f1 = u @ np.diag(rng.uniform(0.0, 1.0, r)) @ u.conj().T
        f1 = (f1 + f1.conj().T) / 2.0
        scale = rng.uniform(0.0, 1.0)
        f2 = scale * (np.eye(r) - f1)
        f2 = (f2 + f2.conj().T) / 2.0
        lhs = gpm_evaluate(rho, f1 + f2)
        rhs = gpm_evaluate(rho, f1) + gpm_evaluate(rho, f2)
        assert abs(lhs - rhs) <= 1e-12


def test_gpm_sample_validates_probability():
    effect = ic_effect_basis(2)[0]
    with pytest.raises(InvariantViolation):
        GPMSample(effect, 1.5)


def test_gpm_rejects_non_hermitian_matrix():
    rho = DensityOperator(np.eye(2) / 2.0)
    with pytest.raises(InvalidEffect):
        gpm_evaluate(rho, np.array([[0.5, 0.4], [0.0, 0.5]]))


def test_gpm_dimension_mismatch():
    rho = DensityOperator(np.eye(2) / 2.0)
    with pytest.raises(DimensionMismatch):
        gpm_evaluate(rho, np.eye(3))


# ---------------------------------------------------------------------------
# informationally complete basis and reconstruction


def test_ic_basis_r2_explicit():
    effects = ic_effect_basis(2)
    assert len(effects) == 4
    inv2 = 0.5
    assert np.allclose(effects[0].matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(effects[1].matrix, np.diag([0.0, 1.0]), atol=1e-12)
    assert np.allclose(effects[2].matrix, [[inv2, inv2], [inv2, inv2]], atol=1e-12)
    assert np.allclose(effects[3].matrix, [[inv2, -1j * inv2], [1j * inv2, inv2]], atol=1e-12)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_ic_basis_is_linearly_independent(r):
    # oracle: rank of the r^2 x r^2 Gram matrix of vectorized effects
    effects = ic_effect_basis(r)
    assert len(effects) == r * r
    gram = np.array(
        [[np.trace(a.matrix.conj().T @ b.matrix).real for b in effects] for a in effects]
    )
    assert np.linalg.matrix_rank(gram) == r * r
    assert np.linalg.cond(gram) < 1e6


def test_ic_basis_members_are_valid_effects():
    for r in (2, 3, 4):
        for f in ic_effect_basis(r):
            w = np.linalg.eigvalsh(f.matrix)
            assert w.min() >= -1e-10 and w.max() <= 1.0 + 1e-10


def exact_samples(rho: DensityOperator):
    return [GPMSample(f, gpm_evaluate(rho, f)) for f in ic_effect_basis(rho.dim)]


def test_reconstruct_maximally_mixed():
    for r in (2, 3, 4):
        rho = DensityOperator(np.eye(r) / r)
        rec = reconstruct_density(exact_samples(rho))
        assert np.linalg.norm(rec.rho.matrix - rho.matrix, "fro") <= 1e-8
        assert not rec.clipped


def test_reconstruct_random_pure_state():
    # oracle: forward gpm_evaluate, then compare round trip
    rng = rng_for(63)
    psi = random_state(3, rng)
    rho = DensityOperator.from_state(psi)
    rec = reconstruct_density(exact_samples(rho))
    assert np.linalg.norm(rec.rho.matrix - rho.matrix, "fro") <= 1e-8


def test_reconstruct_round_trip_random_densities():
    rng = rng_for(64)
    for r in (2, 3, 4, 5):
        for _ in range(5):
            rho = DensityOperator(random_density(r, rng))
            rec = reconstruct_density(exact_samples(rho))
            assert np.linalg.norm(rec.rho.matrix - rho.matrix, "fro") <= 1e-8
            assert rec.residual <= 1e-8


def test_reconstruct_missing_effect_raises():
    rho = DensityOperator(np.eye(3) / 3.0)
    samples = exact_samples(rho)[:-1]
    with pytest.raises(InsufficientSpan):
        reconstruct_density(samples)


def test_reconstruct_rejects_empty_input():
    with pytest.raises(InsufficientSpan):
        reconstruct_density([])


def test_ic_basis_needs_dimension_two():
    with pytest.raises(DimensionMismatch):
        ic_effect_basis(1)


def test_reconstruct_inconsistent_samples_raise():
    rho = DensityOperator(np.eye(2) / 2.0)
    samples = exact_samples(rho)
    clone = GPMSample(samples[0].effect, samples[0].probability + 0.01)
    with pytest.raises(InconsistentSamples):
        reconstruct_density(samples + [clone])


def test_reconstruct_clips_negative_minimizer():
    # probabilities generated by a trace-1 Hermitian matrix with one
    # eigenvalue at -1e-6: every sampled probability stays in [0, 1], the
    # least-squares minimizer reproduces the matrix, and the result must be
    # clipped back to the positive cone.
    r = 3
    delta = 1e-6
    v = np.ones(3) / np.sqrt(3.0)
    vv = np.outer(v, v)
    alpha = (1.0 + delta) / 2.0
    h = alpha * (np.eye(3) - vv) - delta * vv
    samples = [
        GPMSample(f, float(np.trace(h @ f.matrix).real)) for f in ic_effect_basis(r)
    ]
    rec = reconstruct_density(samples)
    assert rec.clipped
    assert rec.min_eigenvalue == pytest.approx(-delta, abs=1e-12)
    w = np.linalg.eigvalsh(rec.rho.matrix)
    assert w.min() >= -1e-12
    assert np.trace(rec.rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_raw_effect_matrices_reconstruct_like_their_effects():
    # copies, not the shared family, so both lists take the generic path
    rho = DensityOperator(random_density(3, rng_for(65)))
    mats = [f.matrix.copy() for f in ic_effect_basis(3)]
    probs = [gpm_evaluate(rho, m) for m in mats]
    raw = reconstruct_density([GPMSample(m, p) for m, p in zip(mats, probs)])
    typed = reconstruct_density([GPMSample(Effect(m), p) for m, p in zip(mats, probs)])
    assert np.array_equal(raw.rho.matrix, typed.rho.matrix)
    assert (raw.residual, raw.clipped, raw.min_eigenvalue, raw.condition_number) == (
        typed.residual, typed.clipped, typed.min_eigenvalue, typed.condition_number)


def test_gpm_sample_rejects_a_raw_non_effect():
    with pytest.raises(InvalidEffect):
        GPMSample(np.diag([2.0, 0.0]), 0.5)


def test_r_squared_samples_of_mixed_dimensions_raise_the_first_mismatch():
    two, three = ic_effect_basis(2), ic_effect_basis(3)
    samples = [GPMSample(f, 0.5) for f in two[:2] + three[:2]]
    with pytest.raises(DimensionMismatch, match=r"^dimensions differ: 2 vs 3$"):
        reconstruct_density(samples)


def test_ic_family_with_a_foreign_last_effect_raises_its_mismatch():
    rho = DensityOperator(np.eye(3) / 3.0)
    samples = exact_samples(rho)[:-1] + [GPMSample(ic_effect_basis(2)[0], 0.5)]
    with pytest.raises(DimensionMismatch, match=r"^dimensions differ: 3 vs 2$"):
        reconstruct_density(samples)


@pytest.mark.parametrize("r", range(2, 33))
def test_upper_index_table_is_triu_indices_and_read_only(r):
    table = engine._upper(r)
    assert all(np.array_equal(a, b) for a, b in zip(table, np.triu_indices(r, 1)))
    for a in table:
        with pytest.raises(ValueError):
            a.setflags(write=True)
