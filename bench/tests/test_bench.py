"""Tests of the benchmark itself: report readers, output checks, seeding, tracer.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference as ref  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from run import run_pass  # noqa: E402

from qdecision import cli, engine, phenomena  # noqa: E402


def cli_output(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def planar_groups(alpha: float) -> list[np.ndarray]:
    """Eigenvector rows of an indicator at plane angle ``alpha``: value 0 first, then 1."""
    t = np.deg2rad(alpha)
    return [np.array([[-np.sin(t), np.cos(t)]]), np.array([[np.cos(t), np.sin(t)]])]


def medical_reference() -> dict:
    """Numpy reference for ``demo medical`` at its default 40/70 degree geometry."""
    a = workloads.RefVariable("a_helps", [0.0, 1.0], planar_groups(40.0))
    b = workloads.RefVariable("b_helps", [0.0, 1.0], planar_groups(70.0))
    psi = np.array([1.0, 0.0], dtype=complex)
    p = [ref.probability(psi, proj) for _, proj in a.sorted_pairs()]
    return {
        "dimension": 2,
        "queries": [
            {"kind": "distribution", "values": {"value_1": 0.0, "p_1": p[0], "value_2": 1.0, "p_2": p[1]}},
            {"kind": "conjunction", **ref.conjunction(psi, a.proj(1.0), b.proj(1.0))},
            {"kind": "total_probability", **ref.total_probability(psi, b.sorted_pairs(), a.proj(1.0))},
            {"kind": "sure_thing", **ref.sure_thing(psi, b.sorted_pairs(), a.proj(1.0), 0.5)},
        ],
    }


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_each_format_reader_reads_the_medical_report(fmt):
    parsed = ref.PARSERS[fmt](cli_output(["demo", "medical", "--format", fmt]))
    assert parsed.meta["context"] == "medical-demo"
    assert ref.compare_report(parsed, medical_reference()) is None


def test_the_three_readers_agree_on_every_row():
    rows = {}
    for fmt in workloads.FORMATS:
        parsed = ref.PARSERS[fmt](cli_output(["demo", "medical", "--format", fmt]))
        rows[fmt] = {(i, b.kind, name): str(v) for i, b in parsed.results.items() for name, v in b.rows.items()}
    booleans = {"True": "true", "False": "false"}
    structured = {k: booleans.get(v, v) for k, v in rows["structured"].items()}
    assert rows["text"] == rows["csv"]
    assert set(structured) == set(rows["text"])
    for key, value in rows["text"].items():
        try:
            assert float(structured[key]) == float(value)
        except ValueError:
            assert structured[key] == value


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_a_corrupted_report_is_a_failure(fmt):
    text = cli_output(["demo", "medical", "--format", fmt])
    expected = medical_reference()
    assert workloads.check_analyze((0, text, ""), fmt, expected) is None
    value = ref.parse_text(cli_output(["demo", "medical"])).results[2].rows["p_second"]
    assert text.count(value) == 1
    corrupted = text.replace(value, "0.123456789012")
    assert "p_second" in workloads.check_analyze((0, corrupted, ""), fmt, expected)
    assert workloads.check_analyze((0, text[: len(text) // 2], ""), fmt, expected) is not None
    assert workloads.check_analyze((2, "", "engine error: x\n"), fmt, expected) is not None


def test_a_rejection_at_the_wrong_path_is_a_failure():
    expected = {"location": "variables[1]"}
    good = "scenario error: variables[1]: eigenbasis is not orthonormal\n"
    assert workloads.check_analyze((1, "", good), "text", expected) is None
    assert workloads.check_analyze((1, "", good.replace("[1]", "[0]")), "text", expected) is not None
    assert workloads.check_analyze((0, "report", ""), "text", expected) is not None


def test_a_wrong_engine_result_is_counted_in_the_loop(tmp_path, monkeypatch):
    w = workloads.build("engine_calls", 3, str(tmp_path))
    assert run_pass(w, rounds=1).failed == 0
    original = engine.expectation
    monkeypatch.setattr(engine, "expectation", lambda state, v: original(state, v) + 1e-6)
    res = run_pass(w, rounds=1)
    assert res.failed == sum(op.tags["op"] == "expectation" for op in w.ops) > 0
    assert res.attempted == len(w.ops)


def test_an_exception_is_counted_in_the_loop(tmp_path, monkeypatch):
    w = workloads.build("engine_calls", 3, str(tmp_path))

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(phenomena, "sure_thing_check", broken)
    assert run_pass(w, rounds=1).failed == sum(op.tags["op"] == "sure_thing_check" for op in w.ops)


def test_analyze_mix_round_passes_its_checks(tmp_path):
    w = workloads.build("analyze_mix", 4, str(tmp_path))
    kinds = {op.tags["doc"] for op in w.ops}
    assert kinds == {"medical", "explicit", "density", "d16", "malformed"}
    res = run_pass(w, rounds=1)
    assert (res.failed, res.failures) == (0, [])


def test_bulk_numeric_checks_accept_the_program_and_bound_the_noise(tmp_path):
    w = workloads.build("bulk_numeric", 4, str(tmp_path))
    seen = {}
    for op in w.ops:
        key = (op.tags.get("r"), op.tags.get("noisy"))
        if key not in seen and key[0] in (None, 8):
            seen[key] = op
    assert set(seen) == {(None, None), (8, False), (8, True)}
    for op in seen.values():
        assert op.check(op.run()) is None
    assert w.counters == {"noisy": 1, "clipped": 1}


def test_spin_check_rejects_a_wrong_quantum_value():
    text = cli_output(["demo", "spin", "--samples", "1000000", "--delta-degrees", "60"])
    assert workloads.check_spin((0, text, ""), 60.0) is None
    assert "quantum" in workloads.check_spin((0, text, ""), 61.0)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_the_seed_reproduces_the_input_digest(name, tmp_path):
    def digest(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        return workloads.build(name, seed, str(d)).digest

    first = digest(5, "a")
    assert digest(5, "b") == first
    assert digest(6, "c") != first


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0, 100, -1, 0, False],
        ["b", 10, 40, 0, 0, False],
        ["c", 15, 25, 1, 0, False],
        ["d", 50, 60, 0, 0, True],
    ]
    assert tr.self_times(spans) == [60, 20, 10, 10]


def test_tracer_restores_every_binding(tmp_path):
    import qdecision.engine
    import qdecision.linalg
    import qdecision.phenomena

    before = (qdecision.engine.event_probability, qdecision.linalg.Projector.__init__)
    w = workloads.build("engine_calls", 3, str(tmp_path))
    t = tr.Tracer()
    t.install()
    try:
        assert qdecision.phenomena.event_probability is not before[0]
        res = run_pass(w, rounds=1, tracer=t)
    finally:
        t.uninstall()
    assert qdecision.phenomena.event_probability is before[0]
    assert qdecision.engine.event_probability is before[0]
    assert qdecision.linalg.Projector.__init__ is before[1]
    assert res.failed == 0
    metrics = tr.span_metrics(t.spans, res.op_tags, res.rounds)
    assert metrics["engine.calls_per_op.event_probability"][0] > 0
    assert metrics["phenomena.conjunction_report.self_us.d2"][0] > 0
    assert metrics["engine.reconstruct_density.ms.r32"][0] == 0.0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
