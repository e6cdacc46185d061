"""Scenario documents: parsing, validation, execution, emission."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from qdecision import (
    DensityOperator,
    EngineError,
    ScenarioError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    StateVector,
    ZeroProbabilityOutcome,
    emit_report,
    parse_scenario,
    run_scenario,
    scenario_to_document,
    transition_probability,
)
from qdecision.demos import medical_document
from qdecision.scenario import QUERY_KINDS

from corpus import generate_valid_document, malformed_documents

MINIMAL = """
{
  "dimension": 2,
  "state": {"vector": [[1.0, 0.0], [0.0, 0.0]]},
  "variables": [{"name": "q", "values": [0, 1], "basis_angle_degrees": 30.0}],
  "queries": [{"kind": "distribution", "variable": "q"}]
}
"""


# ---------------------------------------------------------------------------
# parsing


def test_minimal_document_parses():
    s = parse_scenario(MINIMAL)
    assert s.dimension == 2
    assert s.context == "default"
    assert [v.name for v in s.variables] == ["q"]
    assert s.queries[0].kind == "distribution"


def test_bad_norm_names_the_invariant():
    doc = MINIMAL.replace('[[1.0, 0.0], [0.0, 0.0]]', '[[0.9, 0.0], [0.0, 0.0]]')
    with pytest.raises(ScenarioValidationError, match="unit-norm") as err:
        parse_scenario(doc)
    assert "state.vector" in str(err.value)


def test_undeclared_variable_is_reported():
    doc = MINIMAL.replace('"variable": "q"', '"variable": "eta"')
    with pytest.raises(ScenarioValidationError, match="eta"):
        parse_scenario(doc)


def test_syntax_error_carries_position():
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario('{"dimension": 2,\n  "state": }')
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_angle_shorthand_points_high_value_at_alpha():
    s = parse_scenario(MINIMAL)
    v = s.variables[0]
    direction = np.array([np.cos(np.deg2rad(30.0)), np.sin(np.deg2rad(30.0))])
    assert np.allclose(v.projector_for(1.0).matrix, np.outer(direction, direction), atol=1e-12)


def test_density_state_parses():
    doc = MINIMAL.replace(
        '"state": {"vector": [[1.0, 0.0], [0.0, 0.0]]}',
        '"state": {"density": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}',
    )
    s = parse_scenario(doc)
    assert isinstance(s.initial_state, DensityOperator)


def test_malformed_corpus_is_rejected_with_annotations():
    for name, text in malformed_documents():
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        message = str(err.value)
        assert message, name
        if isinstance(err.value, ScenarioSyntaxError):
            assert "line" in message, name
        else:
            # every validation error names a location in the document
            assert any(
                token in message
                for token in ("document", "context", "dimension", "state", "variables", "queries")
            ), (name, message)


def test_non_finite_numbers_are_rejected_at_their_variable():
    docs = dict(malformed_documents())
    for name in ("angle_nan", "angle_infinity", "eigenvector_nan", "values_nan", "values_infinity"):
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(docs[name])
        assert err.value.location == "variables[0]", name


@pytest.mark.parametrize(
    "name, location",
    [
        ("vector_integer_overflow", "state.vector[0][0]"),
        ("values_integer_overflow", "variables[0].values[1]"),
        ("angle_integer_overflow", "variables[0].basis_angle_degrees"),
        ("threshold_integer_overflow", "queries[0].threshold"),
        ("dimension_too_many_digits", "document"),
    ],
)
def test_oversized_integer_literals_are_rejected_at_their_location(name, location):
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(dict(malformed_documents())[name])
    assert err.value.location == location


def test_dimension_outside_its_range_is_rejected_at_dimension():
    docs = dict(malformed_documents())
    for name in ("dimension_too_small", "dimension_too_large"):
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(docs[name])
        assert err.value.location == "dimension", name
    largest = {"dimension": 32, "state": {"vector": [[1.0, 0.0]] + [[0.0, 0.0]] * 31}, "variables": [], "queries": []}
    assert parse_scenario(json.dumps(largest)).dimension == 32


# ---------------------------------------------------------------------------
# execution


def test_medical_scenario_reproduces_the_six_numbers():
    report = run_scenario(parse_scenario(medical_document()))
    blocks = {r.kind: dict(r.outputs) for r in report.results}
    conj = blocks["conjunction"]
    assert conj["p_first"] == pytest.approx(0.5868240888334649, abs=1e-12)
    assert conj["p_second"] == pytest.approx(0.11697777844051105, abs=1e-12)
    assert conj["p_first_then_second"] == pytest.approx(0.4401180666250989, abs=1e-12)
    assert conj["p_second_then_first"] == pytest.approx(0.08773333383038327, abs=1e-12)
    assert conj["order_asymmetry"] == pytest.approx(0.3523847327947156, abs=1e-12)
    total = blocks["total_probability"]
    assert total["interference"] == pytest.approx(0.27833519961320957, abs=1e-12)
    flags = {r.kind: dict(r.flags) for r in report.results}
    assert flags["conjunction"]["conjunction_flag"] is True


def test_distribution_on_eigenstate_is_point_mass():
    doc = """
    {
      "dimension": 2,
      "state": {"vector": [[0.0, 0.0], [1.0, 0.0]]},
      "variables": [{"name": "q", "values": [0, 1], "basis_angle_degrees": 90.0}],
      "queries": [{"kind": "distribution", "variable": "q"}]
    }
    """
    report = run_scenario(parse_scenario(doc))
    outputs = dict(report.results[0].outputs)
    assert outputs["p_2"] == pytest.approx(1.0, abs=1e-12)
    assert outputs["p_1"] == pytest.approx(0.0, abs=1e-12)


def test_sure_thing_on_commuting_setup_has_no_flag():
    doc = """
    {
      "dimension": 2,
      "state": {"vector": [[0.6, 0.0], [0.8, 0.0]]},
      "variables": [
        {"name": "cond", "values": [0, 1], "basis_angle_degrees": 0.0},
        {"name": "choice", "values": [0, 1], "basis_angle_degrees": 0.0}
      ],
      "queries": [{"kind": "sure_thing", "condition": "cond", "choice": ["choice", 1], "threshold": 0.5}]
    }
    """
    report = run_scenario(parse_scenario(doc))
    assert dict(report.results[0].flags)["violation_flag"] is False
    assert dict(report.results[0].outputs)["interference"] == pytest.approx(0.0, abs=1e-12)


def test_queries_start_fresh_from_the_initial_state():
    doc = """
    {
      "dimension": 2,
      "state": {"vector": [[1.0, 0.0], [0.0, 0.0]]},
      "variables": [{"name": "q", "values": [0, 1], "basis_angle_degrees": 45.0}],
      "queries": [
        {"kind": "sequence", "steps": [["q", 1]]},
        {"kind": "sequence", "steps": [["q", 1]]}
      ]
    }
    """
    report = run_scenario(parse_scenario(doc))
    p1 = dict(report.results[0].outputs)["probability"]
    p2 = dict(report.results[1].outputs)["probability"]
    assert p1 == p2 == pytest.approx(0.5, abs=1e-12)


def test_engine_errors_are_annotated_with_query_index():
    doc = """
    {
      "dimension": 2,
      "state": {"vector": [[1.0, 0.0], [0.0, 0.0]]},
      "variables": [{"name": "cond", "values": [0, 1], "basis_angle_degrees": 90.0}],
      "queries": [{"kind": "sure_thing", "condition": "cond", "choice": ["cond", 1], "threshold": 0.5}]
    }
    """
    with pytest.raises(ZeroProbabilityOutcome, match="query 1"):
        run_scenario(parse_scenario(doc))


def test_reconstruct_check_roundtrips_the_initial_state():
    doc = """
    {
      "dimension": 3,
      "state": {"density": [
        [[0.5, 0.0], [0.1, 0.05], [0.0, 0.0]],
        [[0.1, -0.05], [0.3, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [0.2, 0.0]]
      ]},
      "variables": [],
      "queries": [{"kind": "reconstruct_check"}]
    }
    """
    report = run_scenario(parse_scenario(doc))
    outputs = dict(report.results[0].outputs)
    assert outputs["roundtrip_error"] < 1e-8
    assert dict(report.results[0].flags)["psd_clipped"] is False


# ---------------------------------------------------------------------------
# emission


def test_csv_contract_row():
    doc = """
    {
      "dimension": 2,
      "state": {"vector": [[1.0, 0.0], [0.0, 0.0]]},
      "variables": [{"name": "q", "values": [0, 1], "basis_angle_degrees": 30.0}],
      "queries": [{"kind": "sequence", "steps": [["q", 1]]}]
    }
    """
    report = run_scenario(parse_scenario(doc))
    csv_text = emit_report(report, "csv")
    assert csv_text.splitlines()[0] == "query_index,name,value"
    assert "1,probability,0.750000000000" in csv_text


def test_empty_query_list_yields_header_only_output():
    doc = """
    {
      "dimension": 2,
      "state": {"vector": [[1.0, 0.0], [0.0, 0.0]]},
      "variables": [],
      "queries": []
    }
    """
    report = run_scenario(parse_scenario(doc))
    for fmt in ("text", "csv", "structured"):
        out = emit_report(report, fmt)
        assert "engine_version" in out
        assert "query 1" not in out
    assert emit_report(report, "csv").splitlines()[0] == "query_index,name,value"


def test_emission_is_deterministic():
    for seed in (0, 1, 2):
        doc = generate_valid_document(seed)
        a = emit_report(run_scenario(parse_scenario(doc)), "structured")
        b = emit_report(run_scenario(parse_scenario(doc)), "structured")
        assert a.encode() == b.encode()


def test_unknown_format_is_rejected():
    report = run_scenario(parse_scenario(MINIMAL))
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


# ---------------------------------------------------------------------------
# round trips


def states_equivalent(a, b) -> bool:
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return abs(transition_probability(a, b) - 1.0) <= 1e-10
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return float(np.linalg.norm(a.matrix - b.matrix, "fro")) <= 1e-12
    return False


def test_round_trip_through_document_form():
    for seed in range(6):
        first = parse_scenario(generate_valid_document(seed))
        second = parse_scenario(scenario_to_document(first))
        assert second.context == first.context
        assert second.dimension == first.dimension
        assert states_equivalent(first.initial_state, second.initial_state)
        assert [v.name for v in second.variables] == [v.name for v in first.variables]
        for va, vb in zip(first.variables, second.variables):
            assert np.allclose(va.values, vb.values, atol=1e-12)
            assert np.abs(va.operator.matrix - vb.operator.matrix).max() <= 1e-12
            for pa, pb in zip(va.eigenprojectors, vb.eigenprojectors):
                assert np.abs(pa.matrix - pb.matrix).max() <= 1e-12
        assert second.queries == first.queries


def test_generated_corpus_parses_and_runs():
    for seed in range(10):
        report = run_scenario(parse_scenario(generate_valid_document(seed)))
        assert report.results


def test_readme_names_exactly_the_query_kinds():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    bullet = re.search(r"^- Query kinds: (.*?)\.\s", readme, re.MULTILINE | re.DOTALL)[1]
    assert sorted(re.findall(r"`([a-z_]+)`", bullet)) == sorted(QUERY_KINDS)
