"""Command line: exit codes, formats, determinism across processes."""

import subprocess
import sys

import pytest

from qdecision.cli import main
from qdecision.demos import medical_document

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


def test_reports_are_byte_identical_across_processes(medical_file):
    def run_once():
        return subprocess.run(
            [sys.executable, "-m", "qdecision.cli", "analyze", medical_file, "--format", "csv"],
            capture_output=True,
            check=True,
        ).stdout

    assert run_once() == run_once()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["demo", "reconstruct", "--dim", "0"], "needs dimension >= 2, got 0"),
        (["demo", "reconstruct", "--dim", "-1"], "needs dimension >= 2, got -1"),
        (["demo", "spin", "--samples", "0"], "needs at least one sample, got 0"),
        (["demo", "spin", "--samples", "-5"], "needs at least one sample, got -5"),
    ],
)
def test_bad_demo_counts_are_engine_errors(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("engine error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--angle-a", "--angle-b"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_demo_angles_are_rejected_by_flag(flag, value, capsys):
    assert main(["demo", "medical", f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {flag}: ") and value in err
    assert "line" not in err
