"""A vector state and its density |psi><psi| give the same report for every query kind."""

import json

import numpy as np
import pytest

from qdecision import format_number, outcome_distribution, parse_scenario, run_scenario
from qdecision.scenario import QUERY_KINDS

from conftest import distinct_values, random_state, random_unitary

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

FLAG_MARGIN = 1e-9


def _pairs(vec: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vec]


def _documents(r: int, rng: np.random.Generator) -> tuple[str, str]:
    """One scenario with every query kind, written with a vector and with its density."""
    psi = random_state(r, rng).amplitudes
    u = random_unitary(r, rng)
    split = int(rng.integers(1, r))
    variables = [
        {
            "name": "cond",
            "values": [0.0, 1.0],
            "eigenvectors": [[_pairs(u[:, j]) for j in range(split)], [_pairs(u[:, j]) for j in range(split, r)]],
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

    def name():
        return variables[int(rng.integers(0, len(variables)))]["name"]

    def event():
        v = variables[int(rng.integers(0, len(variables)))]
        return [v["name"], v["values"][int(rng.integers(0, len(v["values"])))]]

    queries = [
        {"kind": "distribution", "variable": name()},
        {"kind": "expectation", "variable": name()},
        {"kind": "sequence", "steps": [event() for _ in range(int(rng.integers(1, 4)))]},
        {"kind": "conjunction", "first": event(), "second": event()},
        {"kind": "total_probability", "partition": name(), "target": event()},
        {"kind": "sure_thing", "condition": "cond", "choice": event(), "threshold": float(rng.uniform())},
        {"kind": "reconstruct_check"},
    ]
    assert {q["kind"] for q in queries} == set(QUERY_KINDS)
    doc = {"dimension": r, "variables": variables, "queries": queries}
    vector = dict(doc, state={"vector": _pairs(psi)})
    density = dict(doc, state={"density": [_pairs(row) for row in np.outer(psi, psi.conj())]})
    return json.dumps(vector), json.dumps(density)


def _flag_margin(kind: str, outputs: dict) -> float:
    """Distance of the quantities a flag compares from the flag's cut."""
    if kind == "conjunction":
        return abs(outputs["p_first_then_second"] - outputs["p_second"])
    if kind == "sure_thing":
        threshold = outputs["threshold"]
        conditionals = [v for k, v in outputs.items() if k.startswith("p_choice_given[")]
        return min(abs(min(conditionals) - threshold), abs(outputs["p_choice_unconditional"] - threshold))
    return np.inf


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(r=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
@hypothesis.example(r=2, seed=507436)  # P(cond = 0) = 1.8e-5: p_choice_given[0] differs by 1.9e-12 between the paths
def test_vector_and_its_density_agree_on_every_query_kind(r, seed):
    """Every output agrees within 1e-12, except a conditional probability p_choice_given[u]: it divides each
    path's rounding by P(cond = u), so it is held to 1e-12 on the joint probability, |difference| * P(cond = u)."""
    vector_doc, density_doc = _documents(r, np.random.default_rng(seed))
    scenario = parse_scenario(vector_doc)
    pure = run_scenario(scenario)
    mixed = run_scenario(parse_scenario(density_doc))
    cond = outcome_distribution(scenario.initial_state, scenario.variable("cond"))
    weight = {f"p_choice_given[{format_number(u)}]": p for u, p in zip(cond.values, cond.probabilities)}
    assert len(pure.results) == len(mixed.results) == len(QUERY_KINDS)
    for a, b in zip(pure.results, mixed.results):
        assert (a.kind, a.echo) == (b.kind, b.echo)
        assert [k for k, _ in a.outputs] == [k for k, _ in b.outputs]
        for (key, x), (_, y) in zip(a.outputs, b.outputs):
            assert abs(x - y) * weight.get(key, 1.0) <= 1e-12, (a.kind, key, x, y)
        if _flag_margin(a.kind, dict(a.echo + a.outputs)) > FLAG_MARGIN:
            assert a.flags == b.flags, a.kind
