"""Mutated scenario documents through ``cli.main``: every input ends in a
report (exit 0), ``scenario error`` (exit 1) or ``engine error`` (exit 2),
never in an escaped exception or a traceback.

Each example takes a ``generate_valid_document`` output and makes one to
three mutations at random places in its tree: drop a key or an element,
retype a value, write NaN or +-Infinity, write an integer of 400 or 5 000
digits, nest arrays or objects deeply, or put non-printable characters in a
label. Every example runs in this process, so all of them share one
argument parser.

Tier-1 runs hypothesis's default example count. For the long run:

    PYTHONPATH=src python -m pytest -q tests/test_cli_fuzz.py --hypothesis-profile=fuzz
"""

import functools
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qdecision.cli import main

from corpus import generate_valid_document

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

FORMATS = ("text", "csv", "structured")
RETYPED = (None, True, False, 0, -1, 2, 0.5, "", "x", [], {}, [0], [[0, 0]], {"a": 1})
# JSON text written in place of a value; json.dumps cannot write the 5 000-digit integers
RAW_NUMBERS = (
    "NaN", "Infinity", "-Infinity",
    "1" + "0" * 399, "-" + "9" * 400, "1" + "0" * 4999, "9" * 5000,
)
NESTING_DEPTHS = (50, 500, 900, 990, 1_000, 2_000, 100_000)
LABELS = ("", "a\x00b", "line\nbreak", "tab\tname", "\x7f", "zero\u200bwidth", "\ud800", " ")
MUTATIONS = ("drop", "retype", "number", "nest", "label")


@functools.cache
def _valid_document(seed: int) -> str:
    return generate_valid_document(seed)


def _paths(node, path=()):
    """Every (path, value) in the tree, the root first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


_DROP = object()


def _replace(root, path, value):
    if not path:
        return value
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return root


@st.composite
def mutated_documents(draw):
    root = json.loads(_valid_document(draw(st.integers(0, 63))))
    raw = []
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(MUTATIONS))
        paths = [path for path, node in _paths(root) if mutation != "label" or isinstance(node, str)]
        if mutation == "drop":
            paths = paths[1:]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        if mutation == "drop":
            value = _DROP
        elif mutation == "retype":
            value = draw(st.sampled_from(RETYPED))
        elif mutation == "label":
            value = draw(st.sampled_from(LABELS) | st.text(max_size=8))
        else:
            if mutation == "number":
                text = draw(st.sampled_from(RAW_NUMBERS))
            else:
                depth = draw(st.sampled_from(NESTING_DEPTHS))
                text = "[" * depth + "]" * depth if draw(st.booleans()) else '{"a": ' * depth + "1" + "}" * depth
            value = f"@raw{len(raw)}@"
            raw.append(text)
        root = _replace(root, path, value)
    document = json.dumps(root)
    for i, text in enumerate(raw):
        document = document.replace(f'"@raw{i}@"', text)
    return document


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "document.json"


@hypothesis.settings(deadline=None, suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(document=mutated_documents(), fmt=st.sampled_from(FORMATS))
def test_mutated_documents_end_in_a_report_or_an_error(document_path, document, fmt):
    document_path.write_text(document, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["analyze", str(document_path), "--format", fmt])
    stderr = err.getvalue()
    assert "Traceback" not in stderr
    assert code in (0, 1, 2), code
    if code == 0:
        assert out.getvalue() and not stderr
    else:
        assert out.getvalue() == ""
        assert stderr.startswith("scenario error: " if code == 1 else "engine error: "), stderr
