"""Density states take the same collapse, chain and phenomena path as vectors."""

import json

import numpy as np
import pytest

from qdecision import (
    DensityOperator,
    DimensionMismatch,
    InvariantViolation,
    Projector,
    ScenarioValidationError,
    collapse,
    collapse_onto,
    conjunction_report,
    event_probability,
    expectation,
    expectation_of_function,
    outcome_distribution,
    parse_scenario,
    planar_projector,
    planar_state,
    projector_onto_span,
    sequential_event_probability,
    sequential_probability,
    sure_thing_check,
    total_probability_report,
    variable_from_spectrum,
)
from qdecision.cli import main

from corpus import malformed_documents
from conftest import random_state, random_unitary, rng_for


def test_collapse_of_a_pure_density_is_the_collapsed_vector():
    rng = rng_for(301)
    for _ in range(30):
        r = int(rng.integers(2, 7))
        psi = random_state(r, rng)
        u = random_unitary(r, rng)
        proj = projector_onto_span([u[:, j] for j in range(int(rng.integers(1, r)))])
        phi = collapse_onto(psi, proj).amplitudes
        post = collapse_onto(DensityOperator.from_state(psi), proj)
        assert isinstance(post, DensityOperator)
        assert np.abs(post.matrix - np.outer(phi, phi.conj())).max() <= 1e-12


def test_maximally_mixed_state_has_no_order_or_interference_effects():
    # oracle: tr(P_B P_A (I/2) P_A P_B) = |<a|b>|^2 / 2 = cos^2(30 deg) / 2 in either order
    rho = DensityOperator(np.eye(2) / 2.0)
    proj_a, proj_b = planar_projector(40.0), planar_projector(70.0)
    rep = conjunction_report(rho, proj_a, proj_b)
    assert rep.p_a_then_b == pytest.approx(0.375, abs=1e-15)
    assert rep.p_b_then_a == pytest.approx(0.375, abs=1e-15)
    assert rep.order_asymmetry == pytest.approx(0.0, abs=1e-15)
    partition = variable_from_spectrum(
        "b", [0.0, 1.0], [[planar_state(160.0).amplitudes], [planar_state(70.0).amplitudes]]
    )
    total = total_probability_report(rho, partition, proj_a)
    assert total.p_direct == pytest.approx(0.5, abs=1e-15)
    assert total.interference == pytest.approx(0.0, abs=1e-15)
    sure = sure_thing_check(rho, partition, proj_a)
    assert sure.p_unconditional == total.p_direct
    assert sure.interference == total.interference


def test_density_collapse_that_breaks_positivity_is_an_engine_error():
    # passes the density gate (eigenvalue -1e-11 is within the floor), but
    # conditioning on the 1e-11 slice leaves eigenvalues (-1, 0, 2)
    rho = DensityOperator(np.diag([1.0 - 1e-11, 2e-11, -1e-11]).astype(complex))
    tail = Projector(np.diag([0.0, 1.0, 1.0]).astype(complex))
    with pytest.raises(InvariantViolation):
        collapse_onto(rho, tail)


_D2 = variable_from_spectrum("b", [0.0, 1.0], [[np.array([1.0, 0.0])], [np.array([0.0, 1.0])]])
_D3 = variable_from_spectrum("c", [0.0, 1.0], [[np.array([1.0, 0.0, 0.0])], np.eye(3)[1:]])

# each entry point on a d = 3 state with a d = 2 operand
_MISMATCHED = {
    "outcome_distribution": lambda s: outcome_distribution(s, _D2),
    "expectation": lambda s: expectation(s, _D2),
    "expectation_of_function": lambda s: expectation_of_function(s, _D2, abs),
    "event_probability": lambda s: event_probability(s, planar_projector(40.0)),
    "collapse": lambda s: collapse(s, _D2, 1.0),
    "sequential_probability": lambda s: sequential_probability(s, [(_D3, 1.0), (_D2, 1.0)]),
    "sequential_event_probability": lambda s: sequential_event_probability(s, [Projector(np.eye(3)), planar_projector(40.0)]),
    "conjunction_report": lambda s: conjunction_report(s, planar_projector(40.0), planar_projector(70.0)),
    "sure_thing_check": lambda s: sure_thing_check(s, _D2, planar_projector(40.0)),
    "total_probability_report partition": lambda s: total_probability_report(s, _D2, Projector(np.eye(3))),
    "total_probability_report target": lambda s: total_probability_report(s, _D3, planar_projector(40.0)),
}


@pytest.mark.parametrize("call", _MISMATCHED.values(), ids=_MISMATCHED)
@pytest.mark.parametrize("mixed", [False, True])
def test_phenomena_reject_mismatched_dimensions(mixed, call):
    """Every entry point, engine and phenomena alike, names the state's dimension first, for both state kinds."""
    psi = random_state(3, rng_for(302))
    with pytest.raises(DimensionMismatch, match="^dimensions differ: 3 vs 2$"):
        call(DensityOperator.from_state(psi) if mixed else psi)


def test_density_document_runs_every_chain_query(tmp_path, capsys):
    doc = {
        "dimension": 2,
        "state": {"density": [[[0.7, 0.0], [0.1, -0.2]], [[0.1, 0.2], [0.3, 0.0]]]},
        "variables": [
            {"name": "a", "values": [0, 1], "basis_angle_degrees": 40.0},
            {"name": "b", "values": [0, 1], "basis_angle_degrees": 70.0},
        ],
        "queries": [
            {"kind": "sequence", "steps": [["a", 1], ["b", 1]]},
            {"kind": "conjunction", "first": ["a", 1], "second": ["b", 1]},
            {"kind": "total_probability", "partition": "b", "target": ["a", 1]},
            {"kind": "sure_thing", "condition": "b", "choice": ["a", 1], "threshold": 0.5},
        ],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    for kind in ("sequence", "conjunction", "total_probability", "sure_thing"):
        assert kind in out


def test_bad_threshold_and_deep_nesting_are_located():
    docs = dict(malformed_documents())
    for name in ("sure_thing_threshold_nan", "sure_thing_threshold_above_one"):
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(docs[name])
        assert err.value.location == "queries[0].threshold", name
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(docs["nesting_too_deep"])
    assert err.value.location == "document"
