"""The tolerance rows rendered once per format, and the structured layout written directly.

Every report prints the same tolerance rows, so each format renders them once
per process. The structured format writes its fixed layout itself; it used to
build a tree of dicts and run a generic JSON writer over it, which is kept
here as the oracle.
"""

import csv
import io
import json

import numpy as np
import pytest

from qdecision import report as report_module
from qdecision import tolerances as tol
from qdecision.demos import medical_document
from qdecision.errors import ScenarioError
from qdecision.report import QueryResult, Report, emit_report, format_number
from qdecision.scenario import parse_scenario, run_scenario

from conftest import random_unitary
from corpus import generate_valid_document

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _fresh(value) -> str:
    return format_number(value) if isinstance(value, float) else str(value)


def test_cached_tolerance_rows_are_a_fresh_render_of_the_table():
    table = tol.all_defaults()
    width = max(map(len, table))
    text = "\ntolerances:\n" + "".join(f"  {name:<{width}}  {_fresh(v)}\n" for name, v in table.items())
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([0, f"tolerance.{name}", _fresh(v)] for name, v in table.items())
    members = ",\n".join(f"    {json.dumps(name)}: {_fresh(v)}" for name, v in table.items())
    structured = '  "tolerances": {\n' + members + "\n  },\n"
    for fmt, fresh in (("text", text), ("csv", buf.getvalue()), ("structured", structured)):
        assert report_module._tolerance_rows(fmt) == fresh, fmt
        assert report_module._tolerance_rows(fmt) is report_module._tolerance_rows(fmt)


def _old_emit_json(node, indent: int = 0) -> str:
    """The generic recursive JSON writer the structured format used before it wrote its layout directly."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(node, dict):
        if not node:
            return "{}"
        parts = [f"{inner}{report_module._json_scalar(str(k))}: {_old_emit_json(v, indent + 1)}" for k, v in node.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        parts = [f"{inner}{_old_emit_json(v, indent + 1)}" for v in node]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    return report_module._json_scalar(node)


def _old_structured(rep: Report) -> str:
    tree = {
        **dict(rep.meta_rows()),
        "tolerances": tol.all_defaults(),
        "results": [
            {"index": r.index, "kind": r.kind, "echo": dict(r.echo), "outputs": dict(r.outputs), "flags": dict(r.flags)}
            for r in rep.results
        ],
    }
    return _old_emit_json(tree) + "\n"


def _reports():
    block = QueryResult(1, "sequence", (("step_1", "q=1"),), (("probability", 0.75),), (("some_flag", True),))
    yield Report(engine_version="0.1.0", context="t", dimension=2, seed=0, results=(block,))
    yield Report(engine_version="0.1.0", context='quote " back \\ snow ☃', dimension=3, seed=-4, results=())
    odd = QueryResult(7, "distribution", (("variable", 'tab\tname "q"'),), (("value_1", 2), ("p_1", -0.0)), ())
    yield Report(engine_version="0.1.0", context="", dimension=2, seed=0, results=(odd, odd))
    yield run_scenario(parse_scenario(medical_document()))
    for seed in range(30):
        yield run_scenario(parse_scenario(generate_valid_document(seed)))


def test_structured_layout_is_what_the_generic_writer_built():
    for rep in _reports():
        new, old = emit_report(rep, "structured"), _old_structured(rep)
        assert new == old
        assert json.loads(new) == json.loads(old)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    values=st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=2, max_size=4, unique=True),
    condition=st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=2, max_size=2, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_names_within_one_result_are_unique(values, condition, seed):
    """The old writer keyed each section by name, so a repeated name would have collapsed there."""
    rng = np.random.default_rng(seed)
    d = len(values)
    u, w = random_unitary(d, rng), random_unitary(d, rng)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    pairs = lambda vec: [[float(z.real), float(z.imag)] for z in vec]
    doc = {
        "dimension": d,
        "state": {"vector": pairs(psi)},
        "variables": [
            {"name": "v", "values": values, "eigenvectors": [[pairs(u[:, j])] for j in range(d)]},
            {"name": "c", "values": condition, "eigenvectors": [[pairs(w[:, j]) for j in range(d - 1)], [pairs(w[:, d - 1])]]},
        ],
        "queries": [
            {"kind": "distribution", "variable": "v"},
            {"kind": "expectation", "variable": "c"},
            {"kind": "sequence", "steps": [["v", values[0]], ["c", condition[1]], ["v", values[0]]]},
            {"kind": "conjunction", "first": ["v", values[-1]], "second": ["c", condition[0]]},
            {"kind": "total_probability", "partition": "v", "target": ["c", condition[0]]},
            {"kind": "sure_thing", "condition": "c", "choice": ["v", values[1]]},
            {"kind": "reconstruct_check"},
        ],
    }
    try:
        rep = run_scenario(parse_scenario(json.dumps(doc)))
    except ScenarioError:
        hypothesis.reject()  # values equal at the digits that identify a value
    for r in rep.results:
        names = [name for name, _ in (*r.echo, *r.outputs, *r.flags)]
        assert len(names) == len(set(names)), names
