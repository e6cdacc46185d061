"""Document corpora for scenario tests: generated valid files and a zoo of
malformed ones. Shared between the scenario tests and the acceptance suite."""

from __future__ import annotations

import copy
import json

import numpy as np

from conftest import distinct_values, random_unitary


def _pairs(vec: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vec]


def _random_variables(r: int, rng: np.random.Generator) -> list[dict]:
    """A binary variable ``cond`` (split eigenspaces when r > 2), then one or two maximal variables ``v0``, ``v1``."""
    u = random_unitary(r, rng)
    split = int(rng.integers(1, r))
    variables = [
        {
            "name": "cond",
            "values": [0.0, 1.0],
            "eigenvectors": [
                [_pairs(u[:, j]) for j in range(split)],
                [_pairs(u[:, j]) for j in range(split, r)],
            ],
        }
    ]
    for idx in range(int(rng.integers(1, 3))):
        w = random_unitary(r, rng)
        variables.append(
            {
                "name": f"v{idx}",
                "values": distinct_values(r, rng),
                "eigenvectors": [[_pairs(w[:, j])] for j in range(r)],
            }
        )
    return variables


def _random_event(rng: np.random.Generator, variables: list[dict]) -> list:
    v = variables[int(rng.integers(0, len(variables)))]
    return [v["name"], v["values"][int(rng.integers(0, len(v["values"])))]]


def generate_valid_document(seed: int) -> str:
    """One random but valid scenario document, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 5))

    psi = rng.normal(size=r) + 1j * rng.normal(size=r)
    psi /= np.linalg.norm(psi)
    if rng.random() < 0.25:
        m = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        state = {"density": [_pairs(row) for row in rho]}
        vector_state = False
    else:
        state = {"vector": _pairs(psi)}
        vector_state = True

    variables = _random_variables(r, rng)
    names = [v["name"] for v in variables]

    queries = [{"kind": "reconstruct_check"}]
    for _ in range(int(rng.integers(1, 5))):
        kind = ["distribution", "expectation", "conjunction", "total_probability", "sequence"][
            int(rng.integers(0, 5))
        ]
        if kind in ("distribution", "expectation"):
            queries.append({"kind": kind, "variable": names[int(rng.integers(0, len(names)))]})
        elif kind == "conjunction" and vector_state:
            queries.append({"kind": kind, "first": _random_event(rng, variables), "second": _random_event(rng, variables)})
        elif kind == "total_probability" and vector_state:
            queries.append(
                {
                    "kind": kind,
                    "partition": names[int(rng.integers(0, len(names)))],
                    "target": _random_event(rng, variables),
                }
            )
        elif kind == "sequence" and vector_state:
            steps = [_random_event(rng, variables) for _ in range(int(rng.integers(1, 4)))]
            queries.append({"kind": kind, "steps": steps})

    doc = {
        "context": f"generated-{seed}",
        "dimension": r,
        "state": state,
        "variables": variables,
        "queries": queries,
    }
    return json.dumps(doc, indent=2)


def generate_density_chain_document(seed: int) -> str:
    """One random valid document on a density state of rank 1 to r, deterministic in the seed, with one query of
    each kind that runs a chain of collapses: ``sequence``, ``conjunction``, ``total_probability``, ``sure_thing``.
    ``generate_valid_document`` gives these kinds to vector states only."""
    rng = np.random.default_rng([seed, 1])
    r = int(rng.integers(2, 5))
    rank = int(rng.integers(1, r + 1))
    m = rng.normal(size=(r, rank)) + 1j * rng.normal(size=(r, rank))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    variables = _random_variables(r, rng)
    names = [v["name"] for v in variables]
    queries = [
        {"kind": "sequence", "steps": [_random_event(rng, variables) for _ in range(int(rng.integers(1, 4)))]},
        {"kind": "conjunction", "first": _random_event(rng, variables), "second": _random_event(rng, variables)},
        {"kind": "total_probability", "partition": names[int(rng.integers(0, len(names)))], "target": _random_event(rng, variables)},
        {"kind": "sure_thing", "condition": "cond", "choice": _random_event(rng, variables[1:]), "threshold": float(rng.random())},
    ]
    doc = {
        "context": f"density-chain-{seed}",
        "dimension": r,
        "state": {"density": [_pairs(row) for row in rho]},
        "variables": variables,
        "queries": queries,
    }
    return json.dumps(doc, indent=2)


BASE_DOC = {
    "context": "base",
    "dimension": 2,
    "state": {"vector": [[1.0, 0.0], [0.0, 0.0]]},
    "variables": [
        {"name": "a", "values": [0.0, 1.0], "basis_angle_degrees": 40.0},
        {"name": "b", "values": [0.0, 1.0], "basis_angle_degrees": 70.0},
    ],
    "queries": [{"kind": "distribution", "variable": "a"}],
}


def _mutate(**changes):
    doc = copy.deepcopy(BASE_DOC)
    for path, value in changes.items():
        keys = path.split("__")
        node = doc
        for key in keys[:-1]:
            node = node[int(key)] if isinstance(node, list) else node[key]
        last = keys[-1]
        target_key = int(last) if isinstance(node, list) else last
        if value is ...:
            del node[target_key]
        else:
            node[target_key] = value
    return json.dumps(doc)


def malformed_documents() -> list[tuple[str, str]]:
    """76 named malformed scenario documents."""
    inv2 = 1.0 / np.sqrt(2.0)
    cases: list[tuple[str, str]] = [
        # syntax
        ("truncated", json.dumps(BASE_DOC)[:40]),
        ("trailing_comma", '{"dimension": 2,}'),
        ("unquoted_key", "{dimension: 2}"),
        ("bare_text", "not a scenario at all"),
        ("empty", ""),
        ("unbalanced", '{"dimension": 2'),
        ("single_quotes", "{'dimension': 2}"),
        ("nan_literal", '{"dimension": NaN}'),
        ("comment_line", "// scenario\n{}"),
        ("binary_junk", "\x00\x01\x02"),
        # document shape
        ("root_is_array", "[1, 2, 3]"),
        ("root_is_number", "42"),
        ("unknown_top_key", _mutate(extra_key="boom")),
        ("context_not_string", _mutate(context=7)),
        # labels must be printable: control characters, newlines and lone
        # surrogates would break the reports
        ("context_control_char", _mutate(context="a\u0001b")),
        ("context_lone_surrogate", _mutate(context="\ud800")),
        ("missing_dimension", _mutate(dimension=...)),
        ("dimension_too_small", _mutate(dimension=1)),
        ("dimension_too_large", _mutate(dimension=33)),
        ("dimension_string", _mutate(dimension="two")),
        ("dimension_bool", _mutate(dimension=True)),
        # state
        ("missing_state", _mutate(state=...)),
        ("state_not_object", _mutate(state=[1, 2])),
        ("state_empty_object", _mutate(state={})),
        ("state_both_kinds", _mutate(state={"vector": [[1, 0], [0, 0]], "density": []})),
        ("state_wrong_length", _mutate(state={"vector": [[1, 0]]})),
        ("density_wrong_shape", _mutate(state={"density": [[[1, 0]]]})),
        ("state_bad_norm", _mutate(state={"vector": [[0.9, 0.0], [0.0, 0.0]]})),
        ("state_complex_not_pair", _mutate(state={"vector": [[1, 0, 0], [0, 0]]})),
        ("state_amplitude_string", _mutate(state={"vector": [["1", 0], [0, 0]]})),
        ("density_not_trace_one", _mutate(state={"density": [[[0.7, 0], [0, 0]], [[0, 0], [0.7, 0]]]})),
        ("density_not_hermitian", _mutate(state={"density": [[[0.5, 0], [0.5, 0]], [[0, 0], [0.5, 0]]]})),
        ("density_negative", _mutate(state={"density": [[[1.2, 0], [0, 0]], [[0, 0], [-0.2, 0]]]})),
        ("density_ragged", _mutate(state={"density": [[[1, 0]], [[0, 0], [0, 0]]]})),
        # variables
        ("variables_not_array", _mutate(variables={"a": 1})),
        ("variable_missing_name", _mutate(variables__0__name=...)),
        ("variable_name_empty", _mutate(variables__0__name="")),
        ("variable_name_newline", _mutate(variables__0__name="a\nb")),
        ("duplicate_variable_names", _mutate(variables__1__name="a")),
        ("variable_missing_values", _mutate(variables__0__values=...)),
        ("variable_duplicate_values", _mutate(variables__0__values=[1.0, 1.0])),
        ("variable_both_basis_forms", _mutate(variables__0__eigenvectors=[[[[1, 0], [0, 0]]], [[[0, 0], [1, 0]]]])),
        (
            "variable_group_count_mismatch",
            _mutate(
                variables__0__basis_angle_degrees=...,
                variables__0__eigenvectors=[[[[1.0, 0.0], [0.0, 0.0]]]],
            ),
        ),
        (
            "variable_not_orthonormal",
            _mutate(
                variables__0__basis_angle_degrees=...,
                variables__0__eigenvectors=[
                    [[[1.0, 0.0], [0.0, 0.0]]],
                    [[[inv2, 0.0], [inv2, 0.0]]],
                ],
            ),
        ),
        (
            "variable_wrong_vector_dim",
            _mutate(
                variables__0__basis_angle_degrees=...,
                variables__0__eigenvectors=[[[[1.0, 0.0]]], [[[0.0, 0.0]]]],
            ),
        ),
        ("angle_shorthand_three_values", _mutate(variables__0__values=[0.0, 1.0, 2.0])),
        # non-finite numbers (Python's json reads NaN and Infinity)
        ("angle_nan", _mutate(variables__0__basis_angle_degrees=float("nan"))),
        ("angle_infinity", _mutate(variables__0__basis_angle_degrees=float("inf"))),
        (
            "eigenvector_nan",
            _mutate(
                variables__0__basis_angle_degrees=...,
                variables__0__eigenvectors=[
                    [[[float("nan"), 0.0], [0.0, 0.0]]],
                    [[[0.0, 0.0], [1.0, 0.0]]],
                ],
            ),
        ),
        ("values_nan", _mutate(variables__0__values=[float("nan"), 1.0])),
        ("values_infinity", _mutate(variables__0__values=[0.0, float("inf")])),
        # queries
        ("queries_not_array", _mutate(queries={"kind": "distribution"})),
        ("query_missing_kind", _mutate(queries__0__kind=...)),
        ("query_unknown_kind", _mutate(queries__0__kind="entangle")),
        ("query_extra_key", _mutate(queries__0__surprise=1)),
        ("query_undeclared_variable", _mutate(queries__0__variable="missing")),
        (
            "event_undeclared_variable",
            _mutate(queries__0=dict(kind="conjunction", first=["missing", 1.0], second=["a", 1.0])),
        ),
        (
            "sequence_empty_steps",
            _mutate(queries__0=dict(kind="sequence", steps=[])),
        ),
        (
            "sequence_bad_event",
            _mutate(queries__0=dict(kind="sequence", steps=[["a"]])),
        ),
        (
            "event_unknown_value",
            _mutate(queries__0=dict(kind="sequence", steps=[["a", 5.0]])),
        ),
        (
            "sure_thing_threshold_string",
            _mutate(queries__0=dict(kind="sure_thing", condition="b", choice=["a", 1.0], threshold="half")),
        ),
        (
            "sure_thing_threshold_nan",
            _mutate(queries__0=dict(kind="sure_thing", condition="b", choice=["a", 1.0], threshold=float("nan"))),
        ),
        (
            "sure_thing_threshold_above_one",
            _mutate(queries__0=dict(kind="sure_thing", condition="b", choice=["a", 1.0], threshold=7)),
        ),
        (
            "sure_thing_condition_three_values",
            json.dumps(
                {
                    "dimension": 3,
                    "state": {"vector": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
                    "variables": [
                        {
                            "name": "c",
                            "values": [0.0, 1.0, 2.0],
                            "eigenvectors": [[_pairs(e)] for e in np.eye(3)],
                        }
                    ],
                    "queries": [{"kind": "sure_thing", "condition": "c", "choice": ["c", 1.0]}],
                }
            ),
        ),
        ("nesting_too_deep", "[" * 100_000 + "]" * 100_000),
        # integers past the float range, and past Python's limit on integer digits
        ("vector_integer_overflow", _mutate(state={"vector": [[10**400, 0], [0, 0]]})),
        ("values_integer_overflow", _mutate(variables__0__values=[0, 10**400])),
        ("angle_integer_overflow", _mutate(variables__0__basis_angle_degrees=10**400)),
        (
            "threshold_integer_overflow",
            _mutate(queries__0=dict(kind="sure_thing", condition="b", choice=["a", 1.0], threshold=10**400)),
        ),
        ("dimension_too_many_digits", _mutate().replace('"dimension": 2', '"dimension": 1' + "0" * 5000)),
        # entries that miss the one-call conversion of a whole vector, density or eigenvector group,
        # so the per-entry path rejects them: bools, integers past the float range, odd pairs, bad lengths
        ("vector_bool_in_pair", _mutate(state={"vector": [[True, 0.0], [0.0, 0.0]]})),
        ("density_bool_entry", _mutate(state={"density": [[[1.0, 0.0], [0.0, False]], [[0.0, 0.0], [0.0, 0.0]]]})),
        ("density_integer_overflow", _mutate(state={"density": [[[1, 0], [0, 0]], [[0, 0], [10**400, 0]]]})),
        (
            "eigenvector_integer_overflow",
            _mutate(
                variables__0__basis_angle_degrees=...,
                variables__0__eigenvectors=[[[[1, 0], [0, 0]]], [[[0, 0], [10**400, 0]]]],
            ),
        ),
        (
            "eigenvector_three_element_pair",
            _mutate(
                variables__0__basis_angle_degrees=...,
                variables__0__eigenvectors=[[[[1.0, 0.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [1.0, 0.0]]]],
            ),
        ),
        (
            "eigenvector_group_wrong_length",
            _mutate(
                variables__0__basis_angle_degrees=...,
                variables__0__eigenvectors=[
                    [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]],
                    [[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
                ],
            ),
        ),
    ]
    assert len(cases) >= 76, len(cases)
    return cases
