"""Byte identity of every report: each ``tools/report_diff.py`` case, run in-process on this tree, has the digest
recorded in ``tests/golden/report_digests.txt``.

A change that alters a report on purpose rewrites the manifest in the same commit, and says which families changed:

    python tools/report_diff.py digest . tests/golden/report_digests.txt
"""

import importlib.util
import os
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "report_digests.txt"


@pytest.fixture(scope="module")
def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_report_has_its_golden_digest(report_diff, monkeypatch):
    import qdecision.cli

    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # the analyze_mix documents come from bench/workloads.py
    cwd, columns, filters = os.getcwd(), os.environ.get("COLUMNS"), list(warnings.filters)
    got = report_diff.digests(qdecision.cli)
    assert (os.getcwd(), os.environ.get("COLUMNS"), warnings.filters) == (cwd, columns, filters)
    problem = report_diff.mismatch(report_diff.read_manifest(GOLDEN), got)
    assert problem is None, problem


def test_one_changed_digit_is_named_with_its_family_and_both_versions(report_diff):
    report = "query 1: spin_marginals\n  samples   1000000\n  p_plus_a  0.500587000000\n"
    expected = ("python 3.0.0, numpy 1.0.0", {"demo/spin": report_diff.case_digest(0, report, ""), "tolerances": "0" * 16})
    got = dict(expected[1])
    assert report_diff.mismatch(expected, got) is None
    got["demo/spin"] = report_diff.case_digest(0, report.replace("0.500587", "0.500588"), "")
    problem = report_diff.mismatch(expected, got).splitlines()
    assert problem == [
        "1 of 2 cases differ from the manifest",
        "  demo/spin: 1: demo/spin",
        f"manifest recorded with python 3.0.0, numpy 1.0.0; this run with {report_diff.versions()}",
    ]
    del got["tolerances"]
    got["density_chain/0/text"] = "0" * 16
    assert "  density_chain: 1: density_chain/0/text (new)" in report_diff.mismatch(expected, got)
    assert "  tolerances: 1: tolerances (gone)" in report_diff.mismatch(expected, got)


def test_a_manifest_reads_back(report_diff, tmp_path):
    cases = {"analyze_mix/seed1/doc000/text": "0123456789abcdef", "demo/spin/delta=nan": "fedcba9876543210"}
    report_diff.write_manifest(tmp_path / "m.txt", cases)
    assert report_diff.read_manifest(tmp_path / "m.txt") == (report_diff.versions(), cases)
