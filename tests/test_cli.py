"""Command line: exit codes, formats, determinism across processes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from qdecision import DimensionMismatch, ic_effect_basis
from qdecision.cli import build_parser, main
from qdecision.demos import medical_document, run_reconstruct_demo
from qdecision.engine import _hermitian_coords

from corpus import malformed_documents


@pytest.fixture
def medical_file(tmp_path):
    path = tmp_path / "medical.json"
    path.write_text(medical_document(), encoding="utf-8")
    return str(path)


def test_analyze_succeeds(medical_file, capsys):
    assert main(["analyze", medical_file]) == 0
    out = capsys.readouterr().out
    assert "conjunction_flag     true" in out
    assert "0.586824088833" in out


def test_analyze_csv_format(medical_file, capsys):
    assert main(["analyze", medical_file, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "query_index,name,value"
    assert "2,p_first,0.586824088833" in out


def test_analyze_structured_format(medical_file, capsys):
    assert main(["analyze", medical_file, "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert '"engine_version": "0.1.0"' in out
    assert '"conjunction_flag": true' in out


def test_missing_file_is_a_validation_failure(capsys):
    assert main(["analyze", "/no/such/file.json"]) == 1
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("make", [lambda p: p.write_bytes(b"\xff\xfe{}"), lambda p: p.mkdir()], ids=["non-utf8", "directory"])
def test_unreadable_file_is_a_scenario_error(make, tmp_path, capsys):
    path = tmp_path / "bad.json"
    make(path)
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: cannot read {str(path)!r}: ")
    assert "Traceback" not in err


def test_malformed_file_is_a_validation_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 2', encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert "scenario error" in err and "line" in err


def test_engine_failure_exits_two(tmp_path, capsys):
    doc = """
    {
      "dimension": 2,
      "state": {"vector": [[1.0, 0.0], [0.0, 0.0]]},
      "variables": [{"name": "cond", "values": [0, 1], "basis_angle_degrees": 90.0}],
      "queries": [{"kind": "sure_thing", "condition": "cond", "choice": ["cond", 1], "threshold": 0.5}]
    }
    """
    path = tmp_path / "zero.json"
    path.write_text(doc, encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert "engine error" in capsys.readouterr().err


def test_reconstruct_check_accepts_a_state_at_the_edge_of_the_norm_slack(tmp_path, capsys):
    # ||psi|| - 1 = 0.9e-10 is inside UNIT_NORM_TOL; |psi><psi| alone would have trace 1 + 1.8e-10
    doc = {
        "dimension": 2,
        "state": {"vector": [[1.0 + 0.9e-10, 0.0], [0.0, 0.0]]},
        "variables": [{"name": "v", "values": [0, 1], "basis_angle_degrees": 0.0}],
        "queries": [{"kind": "reconstruct_check"}],
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["analyze", str(path)]) == 0
    assert "roundtrip_error" in capsys.readouterr().out


def test_malformed_corpus_never_crashes(tmp_path, capsys):
    for name, text in malformed_documents():
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        assert main(["analyze", str(path)]) == 1, name
        assert "scenario error" in capsys.readouterr().err


def test_tolerances_flag(capsys):
    assert main(["--tolerances"]) == 0
    out = capsys.readouterr().out
    assert "UNIT_NORM_TOL" in out
    assert "ZERO_PROB_TOL" in out


def test_demo_medical(capsys):
    assert main(["demo", "medical"]) == 0
    out = capsys.readouterr().out
    assert "0.440118066625" in out


def test_demo_medical_with_angles(capsys):
    assert main(["demo", "medical", "--angle-a", "10", "--angle-b", "80"]) == 0
    out = capsys.readouterr().out
    assert "conjunction" in out


def test_demo_spin(capsys):
    assert main(["demo", "spin", "--samples", "20000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "classical_analytic  0.666666666667" in out
    assert "quantum             0.750000000000" in out


def test_demo_reconstruct(capsys):
    assert main(["demo", "reconstruct", "--dim", "4", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "roundtrip_error" in out
    assert "psd_clipped      false" in out


@pytest.mark.parametrize("dim", range(2, 7))
def test_demo_reconstruct_is_the_reconstruct_check_query(dim, tmp_path, capsys):
    seed = 100 + dim
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    document = {
        "context": "reconstruct-demo",
        "dimension": dim,
        "state": {"density": [[[z.real, z.imag] for z in row] for row in rho.tolist()]},
        "variables": [],
        "queries": [{"kind": "reconstruct_check"}],
    }
    path = tmp_path / "density.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for fmt in ("text", "csv", "structured"):
        assert main(["demo", "reconstruct", "--dim", str(dim), "--seed", str(seed), "--format", fmt]) == 0
        demo = capsys.readouterr().out
        assert main(["analyze", str(path), "--seed", str(seed), "--format", fmt]) == 0
        assert capsys.readouterr().out == demo


@pytest.mark.parametrize("dim", [0, 1])
def test_demo_reconstruct_rejects_a_small_dimension_before_drawing(dim, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("the demo drew a density")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(DimensionMismatch, match=f"dimension >= 2, got {dim}"):
        run_reconstruct_demo(dim)


def test_reports_are_byte_identical_across_processes(medical_file):
    def run_once():
        return subprocess.run(
            [sys.executable, "-m", "qdecision.cli", "analyze", medical_file, "--format", "csv"],
            capture_output=True,
            check=True,
        ).stdout

    assert run_once() == run_once()


@pytest.mark.parametrize("samples", ["0", "-5", "10000001", "1" + "0" * 30])
def test_out_of_range_sample_counts_are_rejected_by_flag(samples, capsys):
    assert main(["demo", "spin", "--samples", samples]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"scenario error: --samples: sample count must be an integer from 1 to 10000000, got {samples}\n"


@pytest.mark.parametrize("flag", ["--angle-a", "--angle-b", "--delta-degrees"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_demo_angles_are_rejected_by_flag(flag, value, capsys):
    demo = "spin" if flag == "--delta-degrees" else "medical"
    assert main(["demo", demo, f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {flag}: ") and value in err
    assert "line" not in err


@pytest.mark.parametrize("demo", ["spin", "reconstruct"])
def test_negative_demo_seed_is_rejected_by_flag(demo):
    proc = subprocess.run(
        [sys.executable, "-m", "qdecision.cli", "demo", demo, "--seed", "-1"], capture_output=True, text=True
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "scenario error: --seed: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("dim", ["1", "0", "-1"])
def test_undersized_demo_dimension_is_rejected_by_flag(dim, capsys):
    assert main(["demo", "reconstruct", "--dim", dim]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scenario error: --dim: dimension must be an integer >= 2, got {dim}\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("dim", ["33", "100000000"])
def test_oversized_demo_dimension_is_rejected_by_flag(dim, capsys):
    assert main(["demo", "reconstruct", "--dim", dim]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scenario error: --dim: dimension must be at most 32, got {dim}\n"


def test_demo_reconstruct_reports_its_diagnostics(capsys):
    assert main(["demo", "reconstruct", "--dim", "4", "--seed", "2", "--format", "structured"]) == 0
    outputs = json.loads(capsys.readouterr().out)["results"][0]["outputs"]
    design = _hermitian_coords(np.stack([f.matrix for f in ic_effect_basis(4)]))
    assert outputs["gram_condition"] == pytest.approx(np.linalg.cond(design.T @ design), rel=1e-9)
    assert 0.0 < outputs["min_eigenvalue"] < 0.25  # a full-rank density at r = 4, before any clipping


@pytest.mark.parametrize(
    "argv, message",
    [
        (["demo", "reconstruct", "--dim", "x"], "argument --dim: invalid int value: 'x'"),
        (["analyze", "doc.json", "--bogus"], "unrecognized arguments: --bogus"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ],
    ids=["not-an-integer", "unknown-option", "unknown-command"],
)
def test_usage_error_is_a_scenario_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: qdecision")
    assert err.splitlines()[-1].startswith(f"scenario error: {message}")


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call_like_a_fresh_process(medical_file, tmp_path, monkeypatch):
    assert build_parser() is build_parser()
    broken = tmp_path / "broken.json"
    broken.write_text('{"dimension": 2', encoding="utf-8")
    # argparse's own exits (help, usage errors) come between reports, so each
    # later call meets a parser that has just raised SystemExit
    argvs = [
        ["--help"],
        ["analyze", medical_file],
        ["demo", "--help"],
        ["analyze", str(broken)],
        [],
        ["demo", "medical"],
        ["demo"],
        ["demo", "spin"],
        ["analyze", medical_file, "--format", "bogus"],
        ["demo", "reconstruct"],
        ["demo", "reconstruct", "--dim", "x"],
        ["analyze", medical_file, "--format", "csv"],
        ["--tolerances"],
        # spellings the analyze reader leaves to argparse
        ["analyze", medical_file, "--format=csv"],
        ["analyze", medical_file, "--form", "csv"],
        ["analyze", "--format", "csv", medical_file],
        ["analyze", medical_file, "--seed", "²"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # help and usage text wrap at the terminal width
    first = [_run_in_process(argv) for argv in argvs]
    assert [_run_in_process(argv) for argv in argvs] == first
    assert {code for code, _, _ in first} == {0, 1}
    for argv, expected in zip(argvs, first):
        proc = subprocess.run(
            [sys.executable, "-m", "qdecision.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "COLUMNS": "80"},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv


@pytest.mark.parametrize("where", ["state", "eigenvector"])
def test_an_entry_of_1e308_is_one_scenario_error_line(where, tmp_path):
    doc = {
        "dimension": 2,
        "state": {"vector": [[1.0, 0.0], [0.0, 0.0]]},
        "variables": [{"name": "v", "values": [0, 1], "eigenvectors": [[[[1.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [1.0, 0.0]]]]}],
        "queries": [{"kind": "distribution", "variable": "v"}],
    }
    entry = doc["state"]["vector"] if where == "state" else doc["variables"][0]["eigenvectors"][0][0]
    entry[0][0] = 1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    # a fresh process keeps Python's default warning filters, which print a RuntimeWarning with its source line
    proc = subprocess.run([sys.executable, "-m", "qdecision.cli", "analyze", str(path)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("scenario error: ") and proc.stderr.count("\n") == 1, proc.stderr
