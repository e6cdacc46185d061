"""Scenario documents: parsing, validation, execution and re-emission.

A scenario is a single UTF-8 JSON document:

    {
      "context": "label",
      "dimension": 2,
      "state": {"vector": [[1.0, 0.0], [0.0, 0.0]]},
      "variables": [
        {"name": "a", "values": [0, 1], "basis_angle_degrees": 40.0},
        {"name": "b", "values": [0, 1],
         "eigenvectors": [[[[0.94, 0.0], [-0.34, 0.0]]], [[[0.34, 0.0], [0.94, 0.0]]]]}
      ],
      "queries": [{"kind": "distribution", "variable": "a"}, ...]
    }

Complex numbers are two-element arrays [re, im]. A state is either a
"vector" (list of complex amplitudes) or a "density" (square matrix of
complex entries). Variables list their eigenvector groups outermost by
value; the r = 2 shorthand ``basis_angle_degrees: alpha`` places the
eigenvector of the *larger* value at angle alpha and the smaller at
alpha + 90 degrees, so indicator variables aim their "yes" direction
at alpha.

Events in queries are ``[variable_name, value]`` pairs. Every query starts
from the scenario's initial state; collapsed states never leak across
query boundaries.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

import numpy as np

from . import tolerances as tol
from ._version import __version__
from .engine import (
    GPMSample,
    expectation,
    gpm_evaluate,
    ic_effect_basis,
    outcome_distribution,
    reconstruct_density,
    sequential_probability,
)
from .errors import (
    EngineError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    UnknownValue,
)
from .linalg import DensityOperator, StateVector, _norm
from .phenomena import (
    conjunction_report,
    sure_thing_check,
    total_probability_report,
)
from .report import QueryResult, Report, format_number
from .variables import DecisionVariable, variable_from_spectrum

__all__ = [
    "Query",
    "Scenario",
    "parse_scenario",
    "scenario_to_document",
    "run_scenario",
]


@dataclass(frozen=True)
class Query:
    """One validated query: ``params`` maps the kind's document keys, in
    document order, to their values; events are ``(name, value)`` pairs."""

    kind: str
    params: dict[str, Any] = field(hash=False)


@dataclass(frozen=True)
class Scenario:
    context: str
    dimension: int
    initial_state: StateVector | DensityOperator
    variables: tuple[DecisionVariable, ...]
    queries: tuple[Query, ...]

    def variable(self, name: str) -> DecisionVariable:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)


# ---------------------------------------------------------------------------
# parsing helpers


def _fail(location: str, message: str):
    raise ScenarioValidationError(location, message)


def _require(node: dict, key: str, location: str):
    if key not in node:
        _fail(location, f"missing required key {key!r}")
    return node[key]


def _as_object(node, location: str) -> dict:
    if not isinstance(node, dict):
        _fail(location, f"expected an object, got {type(node).__name__}")
    return node


def _as_array(node, location: str) -> list:
    if not isinstance(node, list):
        _fail(location, f"expected an array, got {type(node).__name__}")
    return node


def _as_number(node, location: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(location, f"expected a number, got {type(node).__name__}")
    try:
        return float(node)
    except OverflowError:
        _fail(location, "integer literal is beyond the range of a float")


def _as_complex(node, location: str) -> complex:
    arr = _as_array(node, location)
    if len(arr) != 2:
        _fail(location, f"a complex number is a [re, im] pair, got {len(arr)} entries")
    return complex(_as_number(arr[0], location + "[0]"), _as_number(arr[1], location + "[1]"))


_REAL = {int, float}  # JSON true and false are bools, so they miss the gate


def _pair_array(node: list, nested: bool = False) -> np.ndarray | None:
    """``node``'s [re, im] pairs, or (``nested``) its non-empty list of equally long rows of them,
    as one complex array; None when an entry is not a pair of JSON numbers or an integer is beyond
    the float range, so that the per-entry path names the entry at fault. Each check is one ``map``.
    """
    if not nested:
        shape, pairs = (len(node),), node
    elif node and {*map(type, node)} == {list} and len({*map(len, node)}) == 1:
        shape, pairs = (len(node), len(node[0])), list(chain.from_iterable(node))
    else:
        return None
    if pairs and ({*map(type, pairs)} != {list} or {*map(len, pairs)} != {2}):
        return None
    parts = list(chain.from_iterable(pairs))
    if not {*map(type, parts)} <= _REAL:
        return None
    try:
        return np.array(parts, dtype=float).view(complex).reshape(shape)
    except OverflowError:
        return None


def _complex_vector(node, location: str) -> np.ndarray:
    arr = _as_array(node, location)
    fast = _pair_array(arr)
    return fast if fast is not None else np.array([_as_complex(x, f"{location}[{i}]") for i, x in enumerate(arr)])


def _complex_matrix(node, location: str) -> np.ndarray:
    arr = _as_array(node, location)
    fast = _pair_array(arr, nested=True)
    if fast is None:  # the per-entry path names an entry at fault; rows that all pass are empty or ragged
        for i, row in enumerate(arr):
            _complex_vector(row, f"{location}[{i}]")
        _fail(location, "matrix rows are empty or ragged")
    return fast


def _eigenvector_group(node, location: str, dimension: int) -> np.ndarray:
    """One ``eigenvectors[g]`` group as a k x dimension array, one row per eigenvector."""
    group = _as_array(node, location)
    vectors = _pair_array(group, nested=True)
    if vectors is None:  # only an empty group gets past the per-entry path and the size check below
        vectors = [_complex_vector(vec, f"{location}[{k}]") for k, vec in enumerate(group)]
    if any(v.size != dimension for v in vectors):
        _fail(location, f"eigenvectors must have {dimension} components")
    return np.reshape(vectors, (-1, dimension))


def _parse_state(node, dimension: int) -> StateVector | DensityOperator:
    obj = _as_object(node, "state")
    keys = set(obj)
    if keys == {"vector"}:
        loc, make, data = "state.vector", StateVector, _complex_vector(obj["vector"], "state.vector")
        if data.size != dimension:
            _fail(loc, f"has {data.size} amplitudes, dimension is {dimension}")
    elif keys == {"density"}:
        loc, make, data = "state.density", DensityOperator, _complex_matrix(obj["density"], "state.density")
        if data.shape != (dimension, dimension):
            _fail(loc, f"has shape {data.shape}, dimension is {dimension}")
    else:
        _fail("state", f"must contain exactly one of 'vector' or 'density', got {sorted(keys)}")
    try:
        return make(data)
    except EngineError as exc:
        _fail(loc, str(exc))


def _parse_variable(node, index: int, dimension: int) -> DecisionVariable:
    loc = f"variables[{index}]"
    obj = _as_object(node, loc)
    name = _require(obj, "name", loc)
    if not isinstance(name, str) or not name:
        _fail(loc + ".name", "variable name must be a non-empty string")
    if not name.isprintable():
        _fail(loc + ".name", f"variable name must be printable, got {name!r}")
    values = [_as_number(v, f"{loc}.values[{i}]") for i, v in enumerate(_as_array(_require(obj, "values", loc), loc + ".values"))]
    has_vectors = "eigenvectors" in obj
    has_angle = "basis_angle_degrees" in obj
    if has_vectors == has_angle:
        _fail(loc, "give exactly one of 'eigenvectors' or 'basis_angle_degrees'")

    if has_angle:
        if dimension != 2 or len(values) != 2:
            _fail(
                loc + ".basis_angle_degrees",
                "the angle shorthand needs dimension 2 and exactly two values",
            )
        alpha = math.radians(_as_number(obj["basis_angle_degrees"], loc + ".basis_angle_degrees"))
        if not math.isfinite(alpha):  # no cos or sin of an infinite angle: NaN axes fail the basis check
            alpha = math.nan
        c, s = math.cos(alpha), math.sin(alpha)  # numpy's deg2rad, cos and sin to the bit, without the scalar ufuncs
        lo_hi = np.array([[-s, c], [c, s]], dtype=complex)
        eigenbasis = [lo_hi[1:], lo_hi[:1]] if values[1] < values[0] else [lo_hi[:1], lo_hi[1:]]
    else:
        groups_node = _as_array(obj["eigenvectors"], loc + ".eigenvectors")
        if len(groups_node) != len(values):
            _fail(loc + ".eigenvectors", f"{len(groups_node)} groups for {len(values)} values")
        eigenbasis = [_eigenvector_group(group, f"{loc}.eigenvectors[{g}]", dimension) for g, group in enumerate(groups_node)]

    try:
        return variable_from_spectrum(name, values, eigenbasis)
    except EngineError as exc:
        _fail(loc, str(exc))


def _parse_event(node, location: str, scenario_vars: dict[str, DecisionVariable]) -> tuple[str, float]:
    arr = _as_array(node, location)
    if len(arr) != 2 or not isinstance(arr[0], str):
        _fail(location, "an event is a [variable_name, value] pair")
    name, value = arr[0], _as_number(arr[1], location + "[1]")
    if name not in scenario_vars:
        _fail(location, f"query references undeclared variable {name!r}")
    v = scenario_vars[name]
    try:
        v.value_index(value)
    except UnknownValue:
        _fail(location, f"{value!r} is not a value of variable {name!r} (values: {list(v.values)})")
    return name, value


def _parse_param(obj: dict, key: str, loc: str, scenario_vars: dict[str, DecisionVariable]) -> Any:
    at = f"{loc}.{key}"
    if key == "threshold":
        threshold = _as_number(obj.get(key, 0.5), at)
        if not 0.0 <= threshold <= 1.0:
            _fail(at, f"threshold must be in [0, 1], got {threshold!r}")
        return threshold
    node = _require(obj, key, loc)
    if key == "steps":
        steps = _as_array(node, at)
        if not steps:
            _fail(at, "a sequence needs at least one step")
        return tuple(_parse_event(step, f"{at}[{i}]", scenario_vars) for i, step in enumerate(steps))
    if key in ("first", "second", "target", "choice"):
        return _parse_event(node, at, scenario_vars)
    if not isinstance(node, str) or node not in scenario_vars:
        _fail(at, f"query references undeclared variable {node!r}")
    if key == "condition" and len(scenario_vars[node].values) != 2:
        _fail(at, f"condition variable {node!r} must have exactly two values")
    return node


def _parse_query(node, index: int, scenario_vars: dict[str, DecisionVariable]) -> Query:
    loc = f"queries[{index}]"
    obj = _as_object(node, loc)
    kind = _require(obj, "kind", loc)
    if kind not in QUERY_KINDS:
        _fail(loc + ".kind", f"unknown query kind {kind!r} (choose from {QUERY_KINDS})")
    keys, _ = _QUERIES[kind]
    extra = set(obj) - {"kind", *keys}
    if extra:
        _fail(loc, f"unexpected keys for kind {kind!r}: {sorted(extra)}")
    return Query(kind, {key: _parse_param(obj, key, loc, scenario_vars) for key in keys})


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document.

    Raises ``ScenarioSyntaxError`` (with line/column) for malformed JSON and
    ``ScenarioValidationError`` (with an object path) for anything that
    violates the schema or the engine's invariants.
    """
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError:
        # json gives no line for this; the document is well formed but unusable
        _fail("document", "arrays or objects are nested too deeply")
    except ValueError:
        # Python's limit on integer digits; json gives no line for this either
        _fail("document", f"an integer literal has more than {sys.get_int_max_str_digits()} digits")
    root = _as_object(root, "document")
    known = {"context", "dimension", "state", "variables", "queries"}
    extra = set(root) - known
    if extra:
        _fail("document", f"unknown keys: {sorted(extra)}")

    context = root.get("context", "default")
    if not isinstance(context, str):
        _fail("context", "context label must be a string")
    if not context.isprintable():
        _fail("context", f"context label must be printable, got {context!r}")
    dimension = _require(root, "dimension", "document")
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 2:
        _fail("dimension", f"dimension must be an integer >= 2, got {dimension!r}")
    if dimension > tol.MAX_DIMENSION:
        _fail("dimension", f"dimension must be at most {tol.MAX_DIMENSION}, got {dimension}")

    state = _parse_state(_require(root, "state", "document"), dimension)

    var_map = {}  # in document order
    for i, node in enumerate(_as_array(_require(root, "variables", "document"), "variables")):
        v = _parse_variable(node, i, dimension)
        if v.name in var_map:
            _fail(f"variables[{i}].name", f"duplicate variable name {v.name!r}")
        var_map[v.name] = v

    queries = [
        _parse_query(node, i, var_map)
        for i, node in enumerate(_as_array(_require(root, "queries", "document"), "queries"))
    ]
    return Scenario(context, dimension, state, tuple(var_map.values()), tuple(queries))


# ---------------------------------------------------------------------------
# re-emission


def scenario_to_document(s: Scenario) -> str:
    """Serialize a scenario back to its document form.

    Eigenvector groups are written explicitly (the angle shorthand is not
    reconstructed) and floats keep full precision, so parse -> emit ->
    parse reproduces states and operators to rounding error.
    """

    def pairs(a: np.ndarray) -> list:  # each complex entry as a [re, im] pair
        return np.stack([a.real, a.imag], axis=-1).tolist()

    state = s.initial_state
    state_doc = {"vector": pairs(state.amplitudes)} if isinstance(state, StateVector) else {"density": pairs(state.matrix)}

    variables_doc = []
    for v in s.variables:
        groups = []
        for p in v.eigenprojectors:
            w, vecs = np.linalg.eigh(p.matrix)
            groups.append(pairs(vecs[:, w > 0.5].T))  # the eigenvectors of eigenvalue 1, one per row
        variables_doc.append({"name": v.name, "values": [float(u) for u in v.values], "eigenvectors": groups})

    tree = {
        "context": s.context,
        "dimension": s.dimension,
        "state": state_doc,
        "variables": variables_doc,
        "queries": [{"kind": q.kind, **q.params} for q in s.queries],
    }
    return json.dumps(tree, indent=2) + "\n"


# ---------------------------------------------------------------------------
# execution


def _echo(params: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Report rows restating a query's parameters; an event reads ``name=value``."""

    def event(pair: tuple[str, float]) -> str:
        return f"{pair[0]}={format_number(pair[1])}"

    rows = []
    for key, value in params.items():
        if key == "steps":
            rows.extend((f"step_{i}", event(step)) for i, step in enumerate(value, start=1))
        else:
            rows.append((key, event(value) if isinstance(value, tuple) else value))
    return tuple(rows)


def _event_projector(s: Scenario, event: tuple[str, float]):
    return s.variable(event[0]).projector_for(event[1])


def _distribution(s: Scenario, p: dict[str, Any]):
    dist = outcome_distribution(s.initial_state, s.variable(p["variable"]))
    outputs = []
    for j, (u, prob) in enumerate(zip(dist.values, dist.probabilities), start=1):
        outputs += [(f"value_{j}", u), (f"p_{j}", prob)]
    return outputs, ()


def _sequence(s: Scenario, p: dict[str, Any]):
    steps = [(s.variable(name), value) for name, value in p["steps"]]
    return [("probability", sequential_probability(s.initial_state, steps))], ()


def _expectation(s: Scenario, p: dict[str, Any]):
    return [("expectation", expectation(s.initial_state, s.variable(p["variable"])))], ()


def _conjunction(s: Scenario, p: dict[str, Any]):
    rep = conjunction_report(s.initial_state, _event_projector(s, p["first"]), _event_projector(s, p["second"]))
    outputs = [
        ("p_first", rep.p_a),
        ("p_second", rep.p_b),
        ("p_first_then_second", rep.p_a_then_b),
        ("p_second_then_first", rep.p_b_then_a),
        ("order_asymmetry", rep.order_asymmetry),
    ]
    return outputs, (("conjunction_flag", rep.conjunction_flag),)


def _total_probability(s: Scenario, p: dict[str, Any]):
    rep = total_probability_report(s.initial_state, s.variable(p["partition"]), _event_projector(s, p["target"]))
    outputs = [
        ("p_direct", rep.p_direct),
        ("p_via_partition", rep.p_via_partition),
        ("interference", rep.interference),
    ]
    outputs += [(f"term[{format_number(u)}]", term) for u, term in zip(rep.partition_values, rep.partition_terms)]
    return outputs, ()


def _sure_thing(s: Scenario, p: dict[str, Any]):
    rep = sure_thing_check(s.initial_state, s.variable(p["condition"]), _event_projector(s, p["choice"]), p["threshold"])
    outputs = [
        (f"p_choice_given[{format_number(rep.condition_values[0])}]", rep.conditionals[0]),
        (f"p_choice_given[{format_number(rep.condition_values[1])}]", rep.conditionals[1]),
        ("p_choice_unconditional", rep.p_unconditional),
        ("interference", rep.interference),
    ]
    return outputs, (("violation_flag", rep.violation_flag),)


def _reconstruct_check(s: Scenario, p: dict[str, Any]):
    state = s.initial_state
    rho = DensityOperator.from_state(state) if isinstance(state, StateVector) else state
    effects = ic_effect_basis(s.dimension)
    rec = reconstruct_density([GPMSample(f, gpm_evaluate(rho, f)) for f in effects])
    outputs = [
        ("roundtrip_error", _norm(rec.rho.matrix - rho.matrix)),
        ("residual", rec.residual),
        ("gram_condition", rec.condition_number),
        ("min_eigenvalue", rec.min_eigenvalue),
        ("effect_count", len(effects)),
    ]
    return outputs, (("psd_clipped", rec.clipped),)


# kind -> (its parameter keys in document order, its runner (scenario, params) -> (outputs, flags))
_QUERIES = {
    "distribution": (("variable",), _distribution),
    "sequence": (("steps",), _sequence),
    "expectation": (("variable",), _expectation),
    "conjunction": (("first", "second"), _conjunction),
    "total_probability": (("partition", "target"), _total_probability),
    "sure_thing": (("condition", "choice", "threshold"), _sure_thing),
    "reconstruct_check": ((), _reconstruct_check),
}
QUERY_KINDS = tuple(_QUERIES)


def run_scenario(s: Scenario, *, seed: int = 0) -> Report:
    """Execute every query in order, each starting from the initial state."""
    results = []
    for i, q in enumerate(s.queries, start=1):
        _, run = _QUERIES[q.kind]
        try:
            outputs, flags = run(s, q.params)
        except EngineError as exc:
            raise type(exc)(f"query {i} ({q.kind}): {exc}") from exc
        results.append(QueryResult(i, q.kind, _echo(q.params), tuple(outputs), flags))
    return Report(
        engine_version=__version__,
        context=s.context,
        dimension=s.dimension,
        seed=seed,
        results=tuple(results),
    )
